package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Per-(unit, profile) circuit breaker. A unit whose computations keep
// failing — a poisoned chip, a profile that deterministically blows its
// deadline — should fast-fail fresh submissions instead of burning a
// worker on every one, degrading every tenant.
//
// State machine per key (key = unit + "|" + profile):
//
//	closed     normal; BreakerThreshold consecutive failures open it
//	open       fresh leader submissions rejected (503 + Retry-After =
//	           remaining cooldown); after BreakerCooldown the next
//	           submission is admitted as a probe (half-open)
//	half-open  exactly one probe in flight; success closes the breaker,
//	           failure reopens it for another full cooldown
//
// Cache hits and dedupe followers bypass the breaker — they consume no
// computation. Successes and non-deadline failures of completed runs
// feed it; client-deadline failures don't (a client's too-tight deadline
// says nothing about the unit). Open/closed transitions are journaled
// (op "breaker") so a persistently failing unit stays fenced across a
// restart.

// Breaker states, ordered by severity for the gauge export:
// serve.breaker_state{unit,profile} is 0 closed, 1 half-open, 2 open.
const (
	brkClosed   = 0
	brkHalfOpen = 1
	brkOpen     = 2
)

// Breaker state names as journaled and displayed.
const (
	BreakerClosed   = "closed"
	BreakerHalfOpen = "half_open"
	BreakerOpen     = "open"
)

func breakerStateName(state int) string {
	switch state {
	case brkOpen:
		return BreakerOpen
	case brkHalfOpen:
		return BreakerHalfOpen
	default:
		return BreakerClosed
	}
}

// BreakerOpenError rejects a submission whose (unit, profile) circuit
// is open. Maps to HTTP 503 with Retry-After = the remaining cooldown.
type BreakerOpenError struct {
	Unit       string
	Profile    string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: circuit open for %s/%s: unit is persistently failing (retry in %s)",
		e.Unit, e.Profile, e.RetryAfter.Round(time.Second))
}

// RetryAfterSeconds renders the Retry-After header value (at least 1).
func (e *BreakerOpenError) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// effectiveProfile normalizes a request profile for breaker keys and
// labels ("" and "default" are the same profile).
func effectiveProfile(profile string) string {
	if profile == "" {
		return "default"
	}
	return profile
}

// breakerKeyOf builds the breaker key for a unit and request profile.
func breakerKeyOf(unit, profile string) string {
	return unit + "|" + effectiveProfile(profile)
}

// breakerEntry is one key's live state.
type breakerEntry struct {
	state    int
	fails    int
	openedAt time.Time
	probing  bool
}

// breakerInfo is the read-only snapshot row (gauges, top, compaction).
type breakerInfo struct {
	Key     string
	Unit    string
	Profile string
	State   string
	Fails   int
	Opened  time.Time
}

// breakerSet holds every non-closed (or recently failing) key. All
// methods are internally locked and nil-safe; threshold 0 disables the
// whole mechanism.
type breakerSet struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	m         map[string]*breakerEntry
}

// defaultBreakerCooldown is BreakerCooldown's zero-value default.
const defaultBreakerCooldown = 30 * time.Second

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breakerSet{
		threshold: threshold, cooldown: cooldown,
		now: time.Now, m: make(map[string]*breakerEntry),
	}
}

func (b *breakerSet) enabled() bool {
	return b != nil && b.threshold > 0
}

// allow gates a fresh leader submission. ok=true admits it (claiming
// the single probe slot when the key is half-open); ok=false rejects
// with the suggested retry delay.
func (b *breakerSet) allow(key string) (retryAfter time.Duration, ok bool) {
	if !b.enabled() {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, exists := b.m[key]
	if !exists || st.state == brkClosed {
		return 0, true
	}
	if st.state == brkOpen {
		if rem := st.openedAt.Add(b.cooldown).Sub(b.now()); rem > 0 {
			return rem, false
		}
		st.state = brkHalfOpen
		st.probing = false
	}
	if st.probing {
		// A probe is already in flight; its verdict decides for everyone.
		return b.cooldown, false
	}
	st.probing = true
	return 0, true
}

// cancelProbe returns a half-open probe slot claimed by allow when the
// submission was rejected downstream (journal failure, tenant quota) or
// canceled before producing a verdict.
func (b *breakerSet) cancelProbe(key string) {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.m[key]; ok && st.state == brkHalfOpen {
		st.probing = false
	}
}

// onResult feeds one completed run's verdict. When the key's journaled
// state changed it returns (newState, fails, true) for the caller to
// persist; sub-threshold failure counts change silently (they are
// rebuilt organically after a restart).
func (b *breakerSet) onResult(key string, success bool) (string, int, bool) {
	if !b.enabled() {
		return "", 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, exists := b.m[key]
	if success {
		if !exists {
			return "", 0, false
		}
		// Any success proves the unit computes again: close fully. A
		// closed breaker with zero fails is indistinguishable from an
		// absent one, so the entry is dropped.
		wasClosed := st.state == brkClosed
		delete(b.m, key)
		if wasClosed {
			return "", 0, false
		}
		return BreakerClosed, 0, true
	}
	if !exists {
		st = &breakerEntry{}
		b.m[key] = st
	}
	st.probing = false
	st.fails++
	switch st.state {
	case brkHalfOpen:
		// The probe failed: reopen for another full cooldown.
		st.state = brkOpen
		st.openedAt = b.now()
		return BreakerOpen, st.fails, true
	case brkOpen:
		// A straggler run from before the circuit opened; nothing new.
		return "", 0, false
	default:
		if st.fails >= b.threshold {
			st.state = brkOpen
			st.openedAt = b.now()
			return BreakerOpen, st.fails, true
		}
		return "", 0, false
	}
}

// restore installs a journaled state at recovery (only open survives;
// closed records delete).
func (b *breakerSet) restore(key, state string, fails int, at time.Time) {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch state {
	case BreakerOpen, BreakerHalfOpen:
		// A restored half-open becomes open-with-elapsed-cooldown: the
		// probe that was in flight died with the process, so the next
		// allow re-probes immediately once the cooldown (counted from the
		// journaled time) has passed.
		b.m[key] = &breakerEntry{state: brkOpen, fails: fails, openedAt: at}
	default:
		delete(b.m, key)
	}
}

// snapshot lists the tracked keys sorted, for gauges and journal
// compaction.
func (b *breakerSet) snapshot() []breakerInfo {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]breakerInfo, 0, len(b.m))
	for key, st := range b.m {
		unit, profile, _ := strings.Cut(key, "|")
		out = append(out, breakerInfo{
			Key: key, Unit: unit, Profile: profile,
			State: breakerStateName(st.state), Fails: st.fails, Opened: st.openedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// stateNum maps a state name to its gauge value.
func breakerStateNum(state string) int {
	switch state {
	case BreakerOpen:
		return brkOpen
	case BreakerHalfOpen:
		return brkHalfOpen
	default:
		return brkClosed
	}
}
