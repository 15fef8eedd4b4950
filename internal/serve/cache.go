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
const (
	stageResult      = "serve.result"
	stageResultViews = "serve.result.views"
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

// readResult reads one result entry. A verified-corrupt entry is
// deleted so the recompute can heal it; an unreadable entry
// (ckpt.StateUnreadable) is left in place — its bytes may be fine once
// the I/O fault clears — and just treated as a miss.
func readResult(store *ckpt.Store, k ckpt.Key, ob *obs.Observer) map[string][]byte {
	payload, state := store.Get(k)
	var artifacts map[string][]byte
	if state == ckpt.StateHit && json.Unmarshal(payload, &artifacts) != nil {
		state = ckpt.StateCorrupt
	}
	switch state {
	case ckpt.StateHit:
		return artifacts
	case ckpt.StateCorrupt:
		ob.Count("serve.cache_corrupt", 1)
		_ = store.Delete(k)
	case ckpt.StateUnreadable:
		ob.Count("serve.cache_unreadable", 1)
	}
	return nil
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
