package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Per-tenant SLO tracking. An objective has two parts: an availability
// target (the fraction of jobs that must succeed) and a latency
// objective (how fast a successful job must go from submission to
// done). A job is "good" when it completes done within the latency
// objective; everything else — failure, cancellation, a slow success —
// burns error budget. The tracker keeps a ring of per-minute
// good/bad counts covering the last hour, and the metrics endpoint
// derives two gauge families from it at scrape time:
//
//	serve_slo_error_budget_remaining{tenant}   1 = untouched, 0 = spent, <0 = blown
//	serve_slo_burn_rate{tenant,window}         error rate / budget, windows 5m and 1h
//
// A burn rate of 1 means the tenant is consuming budget exactly at the
// rate that would spend it all by the end of the (implied 30-day)
// compliance period; >1 is faster. The two windows implement the
// standard multi-window burn alert: page when BOTH are high (fast burn
// that is not a blip), ticket when the long window alone is elevated.

// SLOObjective is one tenant's service objective.
type SLOObjective struct {
	// Availability is the target fraction of good jobs, e.g. 0.999.
	Availability float64
	// Latency is the submit-to-done objective a job must meet to count
	// as good. Zero means availability-only (any done job is good).
	Latency time.Duration
}

// ParseSLOs parses the -slo flag grammar: semicolon-separated
// tenant=availability%/latency entries, e.g.
//
//	default=99.9/30s;alice=99.99/10s;bob=99/5m
//
// The "default" entry applies to tenants without their own. Latency is
// optional (tenant=99.9 is availability-only). Availability is a
// percentage in (0, 100).
func ParseSLOs(spec string) (map[string]SLOObjective, error) {
	out := make(map[string]SLOObjective)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: bad slo entry %q (want tenant=availability/latency)", entry)
		}
		availStr, latStr, hasLat := strings.Cut(rest, "/")
		avail, err := strconv.ParseFloat(availStr, 64)
		if err != nil || avail <= 0 || avail >= 100 {
			return nil, fmt.Errorf("serve: bad slo availability %q in %q (want a percentage in (0,100))", availStr, entry)
		}
		var obj SLOObjective
		obj.Availability = avail / 100
		if hasLat {
			d, err := time.ParseDuration(latStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("serve: bad slo latency %q in %q", latStr, entry)
			}
			obj.Latency = d
		}
		key := name
		if key != "default" {
			key = sanitizeTenant(key)
			if key == "" {
				return nil, fmt.Errorf("serve: bad slo tenant in %q", entry)
			}
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("serve: duplicate slo entry for %q", key)
		}
		out[key] = obj
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: empty slo spec %q", spec)
	}
	return out, nil
}

// ParseTenantWeights parses the -tenant-weights grammar,
// comma-separated tenant=N entries with N a positive integer, e.g.
//
//	alice=3,bob=1
//
// into Config.TenantWeights. The fair queue looks weights up by the
// sanitized tenant label, so a name sanitization would rewrite (a stray
// space, a character outside [A-Za-z0-9._-], more than 32 bytes) could
// never match a tenant and is rejected instead of silently ignored. An
// empty spec means no weights.
func ParseTenantWeights(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, entry := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: bad tenant weight entry %q (want tenant=N)", entry)
		}
		if sanitizeTenant(name) != name {
			return nil, fmt.Errorf("serve: bad tenant weight name %q (want at most %d of [A-Za-z0-9._-])", name, maxTenantLen)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("serve: bad tenant weight %q for %q (want a positive integer)", val, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant weight for %q", name)
		}
		out[name] = w
	}
	return out, nil
}

// sloSlots is the ring length: one slot per minute over one hour.
const (
	sloSlotLen = time.Minute
	sloSlots   = 60
)

// sloWindow names the burn-rate windows the tracker exposes.
var sloWindows = []struct {
	name  string
	slots int
}{
	{"5m", 5},
	{"1h", sloSlots},
}

// sloRing is one tenant's windowed outcome counts.
type sloRing struct {
	// good/bad[i] count outcomes in slot i; slotAt[i] is the absolute
	// slot number the counts belong to, so stale slots are detected
	// lazily instead of by a sweeper goroutine.
	good, bad [sloSlots]int64
	slotAt    [sloSlots]int64
}

// sloTracker accumulates job outcomes per tenant.
type sloTracker struct {
	mu         sync.Mutex
	objectives map[string]SLOObjective
	rings      map[string]*sloRing
	// now is the clock, swappable in tests.
	now func() time.Time
}

// newSLOTracker returns a tracker for the given objectives; nil
// objectives disable tracking (every method no-ops).
func newSLOTracker(objectives map[string]SLOObjective) *sloTracker {
	if len(objectives) == 0 {
		return nil
	}
	return &sloTracker{
		objectives: objectives,
		rings:      make(map[string]*sloRing),
		now:        time.Now,
	}
}

// objective resolves a tenant's objective: its own entry, else
// "default", else none.
func (t *sloTracker) objective(tenant string) (SLOObjective, bool) {
	if t == nil {
		return SLOObjective{}, false
	}
	if o, ok := t.objectives[tenant]; ok {
		return o, true
	}
	o, ok := t.objectives["default"]
	return o, ok
}

// record folds one job outcome in. done reports whether the job
// completed successfully; latency is its submit-to-done time. Tenants
// without an objective (no entry and no default) are not tracked.
func (t *sloTracker) record(tenant string, done bool, latency time.Duration) {
	if t == nil {
		return
	}
	obj, ok := t.objective(tenant)
	if !ok {
		return
	}
	good := done && (obj.Latency == 0 || latency <= obj.Latency)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rings[tenant]
	if r == nil {
		r = &sloRing{}
		t.rings[tenant] = r
	}
	slot := t.now().UnixNano() / int64(sloSlotLen)
	i := int(slot % sloSlots)
	if r.slotAt[i] != slot {
		r.good[i], r.bad[i] = 0, 0
		r.slotAt[i] = slot
	}
	if good {
		r.good[i]++
	} else {
		r.bad[i]++
	}
}

// windowCounts sums the last n slots of a ring as of the current slot.
func (t *sloTracker) windowCounts(r *sloRing, n int) (good, bad int64) {
	slot := t.now().UnixNano() / int64(sloSlotLen)
	for k := 0; k < n; k++ {
		s := slot - int64(k)
		i := int(s % sloSlots)
		if i < 0 {
			i += sloSlots
		}
		if r.slotAt[i] != s {
			continue // stale or never-written slot
		}
		good += r.good[i]
		bad += r.bad[i]
	}
	return good, bad
}

// gauges writes the tracker's derived gauges into dst using the
// standard label grammar: error-budget-remaining per tenant (over the
// full 1h ring) and burn rate per tenant per window. Tenants appear
// once they have recorded at least one outcome.
func (t *sloTracker) gauges(dst map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tenants := make([]string, 0, len(t.rings))
	for tenant := range t.rings {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		obj, ok := t.objective(tenant)
		if !ok {
			continue
		}
		budget := 1 - obj.Availability
		if budget <= 0 {
			continue
		}
		r := t.rings[tenant]
		// The empty (anonymous) tenant produces unlabeled series, the
		// same convention as every other per-tenant metric: obs.Series
		// drops empty label values.
		label := tenant
		good, bad := t.windowCounts(r, sloSlots)
		if good+bad > 0 {
			errRate := float64(bad) / float64(good+bad)
			dst[obs.Series("serve.slo_error_budget_remaining", obs.Label{Key: "tenant", Value: label})] =
				1 - errRate/budget
		}
		for _, w := range sloWindows {
			wg, wb := t.windowCounts(r, w.slots)
			if wg+wb == 0 {
				continue
			}
			errRate := float64(wb) / float64(wg+wb)
			dst[obs.Series("serve.slo_burn_rate",
				obs.Label{Key: "tenant", Value: label}, obs.Label{Key: "window", Value: w.name})] =
				errRate / budget
		}
	}
}
