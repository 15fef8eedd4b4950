package serve

import (
	"errors"
	"math"
	"sync"
	"time"
)

// ErrShed rejects a submission under adaptive overload shedding: the
// measured queue delay has a standing component above twice the
// configured target, so accepting more work would only push every
// admitted job further past it. Maps to HTTP 503 with a Retry-After
// computed from the drain rate.
var ErrShed = errors.New("serve: overloaded, load shed")

// ErrBadRequest wraps submission errors that are the client's fault —
// an unknown chip, an invalid option combination, a negative deadline.
// Maps to HTTP 400; everything not otherwise classified maps to 500.
var ErrBadRequest = errors.New("serve: bad request")

// overloadController is a CoDel-style detector on measured queue delay.
//
// The load signal is the *minimum* queue wait observed over a sliding
// window (two rotating buckets): a burst makes the maximum spike while
// the minimum stays low, but a standing queue — service rate below
// arrival rate — lifts even the minimum. Because the minimum is only fed
// at dequeue time, a fully stalled pool would go quiet exactly when it
// is most overloaded, so the controller takes the max of the window
// minimum and the head-of-line age (how long the oldest still-queued job
// has waited): both are lower bounds on the delay the next admitted job
// will see.
//
// Control law: while the standing delay exceeds twice the target
// (ShedTarget), fresh leader submissions are shed with 503; cache hits
// and dedupe followers still ride.
//
// The controller also owns the drain-rate estimate behind honest
// Retry-After values: an EWMA of per-job service time, scaled by queue
// length over worker count.
type overloadController struct {
	mu     sync.Mutex
	target time.Duration // 0 disables shedding
	window time.Duration
	now    func() time.Time

	curStart        time.Time
	curMin, prevMin time.Duration
	curSet, prevSet bool

	// svcEWMA is the smoothed per-job service time in seconds.
	svcEWMA float64
	svcSet  bool
}

// retryAfterFallback is the Retry-After hint before any service-time
// sample exists — the old hardcoded value, now only the cold-start
// default.
const retryAfterFallback = 5

func newOverloadController(target time.Duration) *overloadController {
	window := 2 * target
	if window < time.Second {
		window = time.Second
	}
	return &overloadController{target: target, window: window, now: time.Now}
}

// rotateLocked advances the two-bucket window.
func (c *overloadController) rotateLocked(now time.Time) {
	if c.curStart.IsZero() {
		c.curStart = now
		return
	}
	for now.Sub(c.curStart) >= c.window {
		c.prevMin, c.prevSet = c.curMin, c.curSet
		c.curMin, c.curSet = 0, false
		c.curStart = c.curStart.Add(c.window)
		if now.Sub(c.curStart) >= 2*c.window {
			// Long quiet gap: both buckets are stale.
			c.prevSet = false
			c.curStart = now
		}
	}
}

// observeDelay feeds one measured queue wait (called at dequeue).
func (c *overloadController) observeDelay(d time.Duration) {
	if c == nil || c.target <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotateLocked(c.now())
	if !c.curSet || d < c.curMin {
		c.curMin, c.curSet = d, true
	}
}

// observeService feeds one completed run's duration into the drain-rate
// EWMA.
func (c *overloadController) observeService(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := d.Seconds()
	if !c.svcSet {
		c.svcEWMA, c.svcSet = s, true
		return
	}
	const alpha = 0.3
	c.svcEWMA = (1-alpha)*c.svcEWMA + alpha*s
}

// shedding evaluates the control law against the current standing
// delay. headAge is the age of the oldest still-queued job (0 when the
// queue is empty).
func (c *overloadController) shedding(headAge time.Duration) bool {
	if c == nil || c.target <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotateLocked(c.now())
	// Standing delay: the windowed minimum of measured waits (min over
	// both buckets), or the head-of-line age when it is larger — a
	// stalled pool measures nothing, but its oldest waiter's age is a
	// hard lower bound on the next admitted job's delay.
	d := headAge
	winMin, winOK := c.curMin, c.curSet
	if c.prevSet && (!winOK || c.prevMin < winMin) {
		winMin, winOK = c.prevMin, true
	}
	if winOK && winMin > d {
		d = winMin
	}
	return d > 2*c.target
}

// retryAfter estimates how many seconds until the queue has drained
// enough for a retry to be admitted: (pending+1) jobs ahead at the
// smoothed service time, spread over the worker pool. Floor 1s, cap
// 60s; the cold-start fallback is the old fixed hint.
func (c *overloadController) retryAfter(pending, workers int) int {
	if c == nil {
		return retryAfterFallback
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.svcSet {
		return retryAfterFallback
	}
	if workers < 1 {
		workers = 1
	}
	secs := int(math.Ceil(float64(pending+1) * c.svcEWMA / float64(workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}
