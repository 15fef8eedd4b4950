package serve

import (
	"encoding/json"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/failpoint"
	"repro/internal/obs"
)

// The artifact cache stores each finished artifact set as one
// checksummed ckpt entry: a JSON object from artifact name to bytes,
// under the job's identity key (Request.identity). ckpt.Store.Put
// publishes an entry with temp file, fsync and rename, so a crash
// leaves either the whole set or none of it — never a partial one. The
// entry shares the run's unit/fingerprint prefix, so a cached result
// sits beside the netex checkpoint that produced it.
//
// A views job's set is a superset of the plain job's, so the two are
// stored under separate stages and a plain lookup falls back to the
// views entry; a views lookup never reads the plain one.
//
// A run that ends in a deterministic engine error stores the error text
// instead, as one serve.failure entry under the same unit/fingerprint:
// the engine is a pure function of chip, options and engine version, so
// an identical request would fail the same way. Views and plain
// requests compute the same extraction and share the entry.
const (
	stageResult      = "serve.result"
	stageResultViews = "serve.result.views"
	stageFailure     = "serve.failure"
)

// cacheLookup fetches the artifact set for an identity, or nil on any
// miss. A plain identity that misses its own entry is served from the
// views entry with the views filtered out.
func cacheLookup(store *ckpt.Store, k ckpt.Key, ob *obs.Observer) map[string][]byte {
	if artifacts := readResult(store, k, ob); artifacts != nil || k.Stage != stageResult {
		return artifacts
	}
	k.Stage = stageResultViews
	artifacts := readResult(store, k, ob)
	for name := range artifacts {
		if strings.HasPrefix(name, "views/") {
			delete(artifacts, name)
		}
	}
	return artifacts
}

// readResult reads one result entry; see readEntry for the miss rules.
func readResult(store *ckpt.Store, k ckpt.Key, ob *obs.Observer) map[string][]byte {
	var artifacts map[string][]byte
	if !readEntry(store, k, ob, func(payload []byte) error {
		return json.Unmarshal(payload, &artifacts)
	}) {
		return nil
	}
	return artifacts
}

// failureKey names the failure entry of an identity.
func failureKey(k ckpt.Key) ckpt.Key {
	return ckpt.Key{Unit: k.Unit, Fingerprint: k.Fingerprint, Stage: stageFailure}
}

// failureLookup returns the stored error text of an identity, or "" on
// a miss.
func failureLookup(store *ckpt.Store, k ckpt.Key, ob *obs.Observer) string {
	var text string
	readEntry(store, failureKey(k), ob, func(payload []byte) error {
		text = string(payload)
		return nil
	})
	return text
}

// failureStore records a deterministic failure under k's unit and
// fingerprint.
func failureStore(store *ckpt.Store, k ckpt.Key, err error) error {
	return store.Put(failureKey(k), []byte(err.Error()))
}

// readEntry reads one entry, hands a verified payload to decode and
// reports a hit. A verified-corrupt entry, or one decode rejects, is
// deleted so the recompute can heal it; an unreadable entry
// (ckpt.StateUnreadable) is left in place — its bytes may be fine once
// the I/O fault clears — and just treated as a miss.
func readEntry(store *ckpt.Store, k ckpt.Key, ob *obs.Observer, decode func([]byte) error) bool {
	payload, state := store.Get(k)
	if state == ckpt.StateHit && decode(payload) != nil {
		state = ckpt.StateCorrupt
	}
	switch state {
	case ckpt.StateHit:
		return true
	case ckpt.StateCorrupt:
		ob.Count("serve.cache_corrupt", 1)
		_ = store.Delete(k)
	case ckpt.StateUnreadable:
		ob.Count("serve.cache_unreadable", 1)
	}
	return false
}

// cacheStore publishes a finished artifact set as one entry under k.
func cacheStore(store *ckpt.Store, k ckpt.Key, artifacts map[string][]byte) error {
	if store == nil {
		return nil
	}
	if err := failpoint.Inject("serve.publish"); err != nil {
		return err
	}
	payload, err := json.Marshal(artifacts)
	if err != nil {
		return err
	}
	return store.Put(k, payload)
}
