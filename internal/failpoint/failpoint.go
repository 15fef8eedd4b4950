// Package failpoint is a deterministic fault-injection registry for the
// service's I/O and control plane: named sites compiled into production
// code paths (checkpoint store writes, journal append/fsync, artifact
// publish, per-chip serve runs, disk-capacity probes, the streaming
// engine's quality gate and denoise workers) that normally cost
// one atomic load and a nil check, and — when activated with a spec —
// inject the failure modes crashes and full disks really produce: error
// returns, ENOSPC, torn/short writes, delays, panics.
//
// Activation is explicit and process-wide, via Enable (the `-failpoints`
// flag) or EnableFromEnv (HIFIDRAM_FAILPOINTS / HIFIDRAM_FAILPOINT_SEED).
// The spec grammar is
//
//	SITE=KIND[(ARG)][:MOD=V]... [; SITE=...]
//
// with kinds
//
//	error[(msg)]  return a generic injected error
//	enospc        return an error wrapping syscall.ENOSPC
//	torn          return ErrTorn — the site performs its partial write
//	delay(dur)    sleep dur, then proceed normally
//	panic[(msg)]  panic (exercises the panic-isolation paths)
//	value(n)      sites that probe a quantity read n (see Value)
//
// and modifiers
//
//	p=0.5         fire with probability 0.5 (deterministic per-site RNG)
//	times=N       fire at most N times, then pass through
//	after=N       skip the first N evaluations
//
// Example: "journal.sync=enospc:times=1;ckpt.put=error:p=0.1".
//
// Everything is deterministic given the seed: each site draws from its
// own RNG seeded by seed^hash(site), and evaluation counters are
// per-site, so a site evaluated from a single goroutine (every journal
// and store site — both serialize writes under a mutex) fires at exactly
// the same evaluations on every run.
package failpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind is a failure mode a site can inject.
type Kind int

const (
	// KindError returns a generic injected error.
	KindError Kind = iota
	// KindENOSPC returns an error wrapping syscall.ENOSPC — the "disk
	// full" signature the disk-pressure machinery keys on.
	KindENOSPC
	// KindTorn returns ErrTorn; the site reacts by leaving a genuinely
	// torn artifact behind (a half-written entry or frame), simulating a
	// filesystem that persisted part of a write before failing.
	KindTorn
	// KindDelay sleeps, then lets the operation proceed.
	KindDelay
	// KindPanic panics at the site.
	KindPanic
	// KindValue carries an integer for sites that probe a quantity
	// (e.g. free disk bytes); read it with Value, not Inject.
	KindValue
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindENOSPC:
		return "enospc"
	case KindTorn:
		return "torn"
	case KindDelay:
		return "delay"
	case KindPanic:
		return "panic"
	case KindValue:
		return "value"
	}
	return "unknown"
}

// ErrTorn is returned by Inject at a site configured to tear its write.
// The site must react by persisting a deliberately truncated artifact
// (and still reporting the operation failed) — that is the physical
// signature this kind exists to reproduce.
var ErrTorn = errors.New("failpoint: torn write")

// ErrInjected is wrapped by every KindError injection, so tests can
// assert an error came from a failpoint rather than the real code path.
var ErrInjected = errors.New("failpoint: injected error")

// point is one configured site.
type point struct {
	mu    sync.Mutex
	kind  Kind
	msg   string
	delay time.Duration
	value int64
	prob  float64 // fire probability; 1 means always
	times int     // max fires; 0 means unlimited
	after int     // evaluations to skip first
	evals int
	fires int
	rng   *rand.Rand
}

// registry is an immutable-once-built site table; the active registry is
// swapped atomically so the disabled fast path is one pointer load.
type registry struct {
	points map[string]*point
}

var active atomic.Pointer[registry]

// Disable deactivates all failpoints (the startup default).
func Disable() {
	active.Store(nil)
}

// Enable parses spec and activates it with the given seed, replacing any
// previous configuration. An empty spec disables injection.
func Enable(spec string, seed int64) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disable()
		return nil
	}
	points := make(map[string]*point)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, action, ok := strings.Cut(entry, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return fmt.Errorf("failpoint: bad entry %q (want site=kind[:mods])", entry)
		}
		p, err := parseAction(action)
		if err != nil {
			return fmt.Errorf("failpoint: site %q: %w", site, err)
		}
		// Per-site seeding: the draw sequence of one site is independent
		// of every other site's evaluation order.
		h := fnv.New64a()
		_, _ = h.Write([]byte(site))
		p.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		points[site] = p
	}
	active.Store(&registry{points: points})
	return nil
}

// EnvSpec and EnvSeed are the environment variables EnableFromEnv reads.
const (
	EnvSpec = "HIFIDRAM_FAILPOINTS"
	EnvSeed = "HIFIDRAM_FAILPOINT_SEED"
)

// EnableFromEnv activates the spec in HIFIDRAM_FAILPOINTS (no-op when
// unset) with the seed in HIFIDRAM_FAILPOINT_SEED (default 1).
func EnableFromEnv() error {
	spec := os.Getenv(EnvSpec)
	if spec == "" {
		return nil
	}
	seed := int64(1)
	if s := os.Getenv(EnvSeed); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("failpoint: bad %s %q: %w", EnvSeed, s, err)
		}
		seed = n
	}
	return Enable(spec, seed)
}

// parseAction parses "kind[(arg)][:mod=v]...".
func parseAction(s string) (*point, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	kindSpec := strings.TrimSpace(parts[0])
	arg := ""
	if i := strings.IndexByte(kindSpec, '('); i >= 0 {
		if !strings.HasSuffix(kindSpec, ")") {
			return nil, fmt.Errorf("bad kind %q (unclosed argument)", kindSpec)
		}
		arg = kindSpec[i+1 : len(kindSpec)-1]
		kindSpec = kindSpec[:i]
	}
	p := &point{prob: 1}
	switch kindSpec {
	case "error":
		p.kind = KindError
		p.msg = arg
	case "enospc":
		p.kind = KindENOSPC
	case "torn":
		p.kind = KindTorn
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay argument %q (want a duration)", arg)
		}
		p.kind = KindDelay
		p.delay = d
	case "panic":
		p.kind = KindPanic
		p.msg = arg
	case "value":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value argument %q (want an integer)", arg)
		}
		p.kind = KindValue
		p.value = n
	default:
		return nil, fmt.Errorf("unknown kind %q (want error, enospc, torn, delay, panic or value)", kindSpec)
	}
	for _, mod := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
		if !ok {
			return nil, fmt.Errorf("bad modifier %q (want mod=value)", mod)
		}
		switch key {
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("bad probability %q (want 0..1)", val)
			}
			p.prob = f
		case "times":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad times %q (want a positive integer)", val)
			}
			p.times = n
		case "after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad after %q (want a non-negative integer)", val)
			}
			p.after = n
		default:
			return nil, fmt.Errorf("unknown modifier %q (want p, times or after)", key)
		}
	}
	return p, nil
}

// fire evaluates the site's gates and consumes one evaluation. Reports
// whether the site fires this time.
func (p *point) fire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.evals++
	if p.evals <= p.after {
		return false
	}
	if p.times > 0 && p.fires >= p.times {
		return false
	}
	if p.prob < 1 && p.rng.Float64() >= p.prob {
		return false
	}
	p.fires++
	return true
}

// Inject evaluates site and performs its injection. The disabled (or
// unconfigured, or not-firing) fast path returns nil: one atomic load,
// one map probe at most. When the site fires:
//
//   - KindError and KindENOSPC return the injected error
//   - KindTorn returns ErrTorn (the caller tears its write)
//   - KindDelay sleeps, then returns nil — the operation proceeds
//   - KindPanic panics
//   - KindValue returns nil (probe it with Value instead)
func Inject(site string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	p, ok := r.points[site]
	if !ok || !p.fire() {
		return nil
	}
	switch p.kind {
	case KindError:
		if p.msg != "" {
			return fmt.Errorf("%w at %s: %s", ErrInjected, site, p.msg)
		}
		return fmt.Errorf("%w at %s", ErrInjected, site)
	case KindENOSPC:
		return fmt.Errorf("failpoint at %s: %w", site, syscall.ENOSPC)
	case KindTorn:
		return fmt.Errorf("at %s: %w", site, ErrTorn)
	case KindDelay:
		time.Sleep(p.delay)
		return nil
	case KindPanic:
		msg := p.msg
		if msg == "" {
			msg = "failpoint panic at " + site
		}
		panic(msg)
	}
	return nil
}

// Value evaluates a KindValue site and returns its integer. ok is false
// when injection is disabled, the site is unconfigured or of another
// kind, or its gates (p/times/after) hold it back this evaluation.
func Value(site string) (int64, bool) {
	r := active.Load()
	if r == nil {
		return 0, false
	}
	p, ok := r.points[site]
	if !ok || p.kind != KindValue || !p.fire() {
		return 0, false
	}
	return p.value, true
}

// Hits reports how many times site has fired (0 for unknown sites) —
// the assertion hook deterministic injection tests count against.
func Hits(site string) int {
	r := active.Load()
	if r == nil {
		return 0
	}
	p, ok := r.points[site]
	if !ok {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires
}

// Sites lists the configured site names, sorted — the `-failpoints`
// startup log line.
func Sites() []string {
	r := active.Load()
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.points))
	for site := range r.points {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}
