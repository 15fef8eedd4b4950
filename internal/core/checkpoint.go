package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/netex"
	"repro/internal/obs"
)

// ckptSchema versions the gob artifact encoding on top of the store's
// own on-disk format version. It is folded into the key fingerprint, so
// bumping it (after changing an artifact struct) silently retires every
// old checkpoint instead of mis-decoding it. v2: netexArtifact carries
// the segmentation Plan so Result.Plan survives a netex-boundary resume.
// v3: netexArtifact carries the planar views; the acquire and aligned
// boundaries are gone. Retiring the plan and views boundaries needed no
// bump: dropping Options.CkptUnit changed every fingerprint, so their
// entries are orphaned, never misread, and "ckpt gc" sweeps them.
const ckptSchema = 3

// engineVersion names the engine's behaviour: what bytes a run produces
// from given options. It is folded into the key fingerprint beside
// ckptSchema, so a build whose results differ under unchanged options
// never reads an older build's checkpoints or serve results; their
// entries are orphaned and GC sweeps them. TestEngineVersionPinsGoldens
// ties it to the committed goldens: re-pinning any of them fails that
// test until this constant is bumped.
const engineVersion = 1

// CkptNetex names the one checkpointed artifact: the extraction that
// RunCtx and RunOnDieCtx persist. It follows reconstruction, so nothing
// stack-sized is ever persisted. A standalone ReconstructCtx or
// PlanarViewsCtx is handed an acquisition the options cannot
// reproduce, so it is never keyed and never checkpoints.
const CkptNetex = "netex"

// netexArtifact checkpoints the extraction boundary: everything RunCtx
// needs to rebuild its Result without touching the imaging stages
// (measurement and scoring are cheap and always recomputed).
type netexArtifact struct {
	Ext        *netex.Result
	Plan       *netex.Plan
	Info       ReconInfo
	Injected   *fault.Report
	SliceCount int
	CostHours  float64
	Views      map[string]*img.Gray
}

// ckptRef is the resolved checkpoint binding for one run: the store
// and the unit/fingerprint key prefix. A nil *ckptRef disables
// checkpointing entirely (the no-store path costs one nil check per
// boundary).
type ckptRef struct {
	store *ckpt.Store
	unit  string
	fp    string
	obs   *obs.Observer
}

// fpOptions is the fingerprint input: the schema and engine versions
// plus a sanitized Options copy. Everything that cannot influence the artifact
// bytes — worker counts, observability sinks, the checkpoint wiring
// itself — is zeroed, so a resumed run hits the same keys at any worker
// count and with any tracing flags.
type fpOptions struct {
	Schema int
	Engine int
	Opts   Options
}

// FingerprintOptions canonicalizes the result-affecting options into
// the content-addressed fingerprint every checkpoint key carries.
// Everything that cannot influence the artifact bytes — worker counts,
// observability sinks, the checkpoint wiring itself — is zeroed first,
// so equal work shares keys across worker counts and tracing flags.
// The serve layer uses the same fingerprint to key its result cache,
// which is what lets identical job submissions dedupe to a single
// computation and share the stage checkpoints of the run that did it.
// Callers comparing against a RunCtx's keys must resolve the detector
// first (RunCtx sets o.SEM.Detector from the chip before keying).
func FingerprintOptions(o Options) (string, error) {
	clean := o
	clean.Workers = 0
	clean.Obs = nil
	clean.Ckpt = nil
	clean.Denoise.Obs = nil
	clean.Register.Obs = nil
	clean.Register.Workers = 0
	// The pool changes allocation only, never artifact bytes, and holds
	// runtime state that must never reach the fingerprint encoding.
	clean.Pool = nil
	fp, err := ckpt.Fingerprint(fpOptions{Schema: ckptSchema, Engine: engineVersion, Opts: clean})
	if err != nil {
		return "", fmt.Errorf("core: checkpoint fingerprint: %w", err)
	}
	return fp, nil
}

// newCkptRef binds o's store to a unit, or returns nil when
// checkpointing is off. The unit must uniquely identify the pipeline
// input under the fingerprinted options: RunCtx uses the chip ID and
// RunOnDieCtx "<chip>/die".
func newCkptRef(unit string, o Options) (*ckptRef, error) {
	if o.Ckpt == nil {
		return nil, nil
	}
	fp, err := FingerprintOptions(o)
	if err != nil {
		return nil, err
	}
	return &ckptRef{store: o.Ckpt, unit: unit, fp: fp, obs: o.Obs}, nil
}

func (c *ckptRef) key(stage string) ckpt.Key {
	return ckpt.Key{Unit: c.unit, Fingerprint: c.fp, Stage: stage}
}

// load decodes the checkpoint for stage into v and reports whether the
// stage can be skipped. A store is always read: the fingerprint names
// the engine version, so a verified entry is what a recompute would
// return (a build whose output differs must bump engineVersion). Any
// anomaly — missing file, torn write, checksum mismatch, stale version,
// undecodable payload, unreadable file — counts into the telemetry
// ("ckpt.miss", "ckpt.corrupt" or "ckpt.unreadable") and returns false
// so the caller recomputes. A corrupt entry is therefore never served,
// only replaced by the save that follows the recompute; an unreadable
// one (permissions, transient I/O) is counted separately because its
// validity is unknown — it too is recomputed, but a later run whose
// read succeeds may still serve it.
func (c *ckptRef) load(stage string, v any) bool {
	if c == nil {
		return false
	}
	payload, state := c.store.Get(c.key(stage))
	switch state {
	case ckpt.StateMiss:
		c.obs.Count("ckpt.miss", 1)
		return false
	case ckpt.StateCorrupt:
		c.obs.Count("ckpt.corrupt", 1)
		c.obs.Info("checkpoint corrupt, recomputing", "unit", c.unit, "stage", stage)
		return false
	case ckpt.StateUnreadable:
		c.obs.Count("ckpt.unreadable", 1)
		c.obs.Info("checkpoint unreadable, recomputing", "unit", c.unit, "stage", stage)
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		// The checksum passed but the gob payload does not decode into
		// the artifact struct — schema drift the fingerprint failed to
		// capture. Treat exactly like corruption: count and recompute.
		c.obs.Count("ckpt.corrupt", 1)
		c.obs.Info("checkpoint undecodable, recomputing", "unit", c.unit, "stage", stage, "err", err)
		return false
	}
	c.obs.Count("ckpt.hit", 1)
	c.obs.Count("ckpt.resumed."+stage, 1)
	c.obs.Info("resumed from checkpoint", "unit", c.unit, "stage", stage)
	return true
}

// save writes the stage artifact. Persistence is best-effort: a full
// disk or revoked permission degrades the run to non-resumable but must
// not fail it, so errors are counted and logged, never returned.
func (c *ckptRef) save(stage string, v any) {
	if c == nil {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		c.obs.Count("ckpt.write_errors", 1)
		c.obs.Info("checkpoint encode failed", "unit", c.unit, "stage", stage, "err", err)
		return
	}
	if err := c.store.Put(c.key(stage), buf.Bytes()); err != nil {
		c.obs.Count("ckpt.write_errors", 1)
		c.obs.Info("checkpoint write failed", "unit", c.unit, "stage", stage, "err", err)
		return
	}
	c.obs.Count("ckpt.writes", 1)
	c.obs.Debug("checkpoint written", "unit", c.unit, "stage", stage, "bytes", buf.Len())
}
