package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/failpoint"
	"repro/internal/obs"
)

// --- Retry-After estimation (replaces the hardcoded 5s hint) ---

func TestRetryAfterColdStartFallback(t *testing.T) {
	c := newOverloadController(0)
	if got := c.retryAfter(10, 2); got != retryAfterFallback {
		t.Fatalf("cold retryAfter = %d, want fallback %d", got, retryAfterFallback)
	}
}

func TestRetryAfterFromDrainRate(t *testing.T) {
	c := newOverloadController(0)
	c.observeService(2 * time.Second)
	// (pending+1) * svc / workers = 4 * 2s / 2 = 4s.
	if got := c.retryAfter(3, 2); got != 4 {
		t.Fatalf("retryAfter(3,2) = %d, want 4", got)
	}
	// Floor: a nearly empty queue with fast jobs still suggests >= 1s.
	c2 := newOverloadController(0)
	c2.observeService(50 * time.Millisecond)
	if got := c2.retryAfter(0, 4); got != 1 {
		t.Fatalf("retryAfter floor = %d, want 1", got)
	}
	// Cap: a deep backlog never suggests more than 60s.
	if got := c.retryAfter(1000, 1); got != 60 {
		t.Fatalf("retryAfter cap = %d, want 60", got)
	}
}

func TestRetryAfterEWMASmoothing(t *testing.T) {
	c := newOverloadController(0)
	c.observeService(1 * time.Second)
	for i := 0; i < 50; i++ {
		c.observeService(3 * time.Second)
	}
	// EWMA converges toward 3s; with 1 pending and 1 worker the hint is
	// ceil(2 * ~3) = 6.
	if got := c.retryAfter(1, 1); got < 5 || got > 7 {
		t.Fatalf("retryAfter after convergence = %d, want ~6", got)
	}
}

// TestQueueFullRetryAfterHeader asserts the HTTP 503 for a full queue
// carries the drain-rate estimate once service samples exist, not the
// old constant.
func TestQueueFullRetryAfterHeader(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	// Prime the drain-rate EWMA with a known service time.
	s.ovl.observeService(10 * time.Second)

	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	submit := func(n int) *http.Response {
		body, _ := json.Marshal(reqN(n))
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := submit(0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	<-started
	if resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	resp := submit(2)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", resp.StatusCode)
	}
	// 1 pending, 1 worker, 10s EWMA: ceil(2*10/1) = 20 — clearly not the
	// old hardcoded 5.
	if ra := resp.Header.Get("Retry-After"); ra != "20" {
		t.Fatalf("Retry-After = %q, want \"20\"", ra)
	}
	close(release)
}

// --- Overload level control law ---

func TestOverloadLevelControlLaw(t *testing.T) {
	c := newOverloadController(10 * time.Millisecond)
	if got := c.level(0); got != levelHealthy {
		t.Fatalf("empty controller level = %d, want healthy", got)
	}
	// Head-of-line age alone lifts the level (a stalled pool measures no
	// dequeues).
	if got := c.level(15 * time.Millisecond); got != levelBrownout {
		t.Fatalf("level(15ms) = %d, want brownout", got)
	}
	if got := c.level(25 * time.Millisecond); got != levelShed {
		t.Fatalf("level(25ms) = %d, want shed", got)
	}
	// A windowed minimum above target also lifts it, even with an empty
	// queue right now.
	c.observeDelay(12 * time.Millisecond)
	if got := c.level(0); got != levelBrownout {
		t.Fatalf("level after min 12ms = %d, want brownout", got)
	}
	// The minimum, not the maximum: one slow dequeue among fast ones is a
	// burst, not a standing queue.
	c2 := newOverloadController(10 * time.Millisecond)
	c2.observeDelay(500 * time.Millisecond)
	c2.observeDelay(1 * time.Millisecond)
	if got := c2.level(0); got != levelHealthy {
		t.Fatalf("level after burst = %d, want healthy (min wins)", got)
	}
}

func TestOverloadDisabledWhenNoTarget(t *testing.T) {
	c := newOverloadController(0)
	c.observeDelay(time.Hour)
	if got := c.level(time.Hour); got != levelHealthy {
		t.Fatalf("disabled controller level = %d, want healthy", got)
	}
}

// TestShedFreshLeadersUnderStandingDelay drives the server into shed via
// head-of-line age: with the single worker wedged and a job queued past
// 2*target, fresh leaders bounce with ErrShed while followers and cache
// hits still ride.
func TestShedFreshLeadersUnderStandingDelay(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, ShedTarget: 5 * time.Millisecond},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	if _, err := s.Submit(reqN(0)); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-started
	queuedSt, err := s.Submit(reqN(1))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	time.Sleep(25 * time.Millisecond) // head-of-line age > 2*target

	if _, err := s.Submit(reqN(2)); !errors.Is(err, ErrShed) {
		t.Fatalf("fresh leader under shed: err = %v, want ErrShed", err)
	}
	if counter(s, "serve.shed") != 1 {
		t.Fatalf("serve.shed = %d, want 1", counter(s, "serve.shed"))
	}
	// A follower of the queued job still attaches: it consumes no worker.
	fol, err := s.Submit(reqN(1))
	if err != nil {
		t.Fatalf("follower under shed: %v", err)
	}
	if fol.DedupedOf != queuedSt.ID {
		t.Fatalf("follower DedupedOf = %q, want %q", fol.DedupedOf, queuedSt.ID)
	}
	close(release)
	waitState(t, s, fol.ID, StateDone)
}

// --- Brownout ---

// TestBrownoutDegradesDefaultProfile uses soft disk pressure (the
// deterministic brownout source) to check a default-profile submission
// is degraded to fast, flagged, and that NoBrownout opts out.
func TestBrownoutDegradesDefaultProfile(t *testing.T) {
	free := atomic.Int64{}
	free.Store(10_000)
	s := newTestServer(t, Config{
		Jobs: 1, QueueDepth: 8,
		JournalPath:   filepath.Join(t.TempDir(), "journal.db"),
		DiskSoftBytes: 5_000, DiskHardBytes: 100, diskPoll: 5 * time.Millisecond,
		diskFree: func(string) (int64, error) { return free.Load(), nil },
	}, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})

	st, err := s.Submit(Request{Chip: "B4"})
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	if st.Brownout || st.Profile != "" {
		t.Fatalf("healthy submit browned out: %+v", st)
	}

	free.Store(2_000) // under soft, above hard
	waitDiskPressure(t, s, diskSoft)

	st, err = s.Submit(Request{Chip: "B4"})
	if err != nil {
		t.Fatalf("soft-pressure submit: %v", err)
	}
	if !st.Brownout || st.Profile != "fast" {
		t.Fatalf("soft-pressure submit: Brownout=%v Profile=%q, want true/fast", st.Brownout, st.Profile)
	}
	if counter(s, "serve.brownout") != 1 {
		t.Fatalf("serve.brownout = %d, want 1", counter(s, "serve.brownout"))
	}
	waitState(t, s, st.ID, StateDone)

	// Opt-out: the client insists on the full profile.
	st, err = s.Submit(Request{Chip: "B4", NoBrownout: true})
	if err != nil {
		t.Fatalf("opt-out submit: %v", err)
	}
	if st.Brownout || st.Profile != "" {
		t.Fatalf("opt-out submit browned out: %+v", st)
	}
	// Non-default profiles are never touched.
	st, err = s.Submit(Request{Chip: "B4", Profile: "fast", Units: 2})
	if err != nil {
		t.Fatalf("fast submit: %v", err)
	}
	if st.Brownout {
		t.Fatal("fast-profile submit flagged as brownout")
	}
}

func waitDiskPressure(t *testing.T, s *Server, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.diskPressure.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("disk pressure stuck at %d, want %d", s.diskPressure.Load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- Disk-pressure guard ---

func TestDiskHardWatermarkRejectsAndRecovers(t *testing.T) {
	free := atomic.Int64{}
	free.Store(50) // below hard from the very first probe
	s := newTestServer(t, Config{
		Jobs: 1, QueueDepth: 8,
		JournalPath:   filepath.Join(t.TempDir(), "journal.db"),
		DiskSoftBytes: 5_000, DiskHardBytes: 100, diskPoll: 5 * time.Millisecond,
		diskFree: func(string) (int64, error) { return free.Load(), nil },
	}, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})
	if _, err := s.Submit(reqN(0)); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("submit on full disk: err = %v, want ErrDiskFull", err)
	}
	if counter(s, "serve.disk_rejected") != 1 {
		t.Fatalf("serve.disk_rejected = %d, want 1", counter(s, "serve.disk_rejected"))
	}
	// Reads stay alive while submissions bounce.
	if _, ok := s.MetricsSnapshot().Gauges["serve.disk_pressure"]; !ok {
		t.Fatal("disk gauges absent under hard pressure")
	}
	free.Store(10_000)
	waitDiskPressure(t, s, diskOK)
	st, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit after space freed: %v", err)
	}
	waitState(t, s, st.ID, StateDone)
}

func TestDiskHardWatermarkHTTP507(t *testing.T) {
	s := newTestServer(t, Config{
		Jobs: 1, QueueDepth: 8,
		JournalPath:   filepath.Join(t.TempDir(), "journal.db"),
		DiskHardBytes: 100, diskPoll: time.Hour,
		diskFree: func(string) (int64, error) { return 50, nil },
	}, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	body, _ := json.Marshal(reqN(0))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("submit on full disk: HTTP %d, want 507", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("507 without Retry-After")
	}
	// /metrics still answers.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics under hard pressure: HTTP %d", mresp.StatusCode)
	}
}

// TestDiskFreeFailpoint proves the "serve.disk.free" value failpoint
// overrides the probe — the lever the overload smoke uses.
func TestDiskFreeFailpoint(t *testing.T) {
	defer failpoint.Disable()
	if err := failpoint.Enable("serve.disk.free=value(42)", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	s := newTestServer(t, Config{
		Jobs: 1, QueueDepth: 8,
		JournalPath:   filepath.Join(t.TempDir(), "journal.db"),
		DiskHardBytes: 100, diskPoll: time.Hour,
		diskFree: func(string) (int64, error) { return 1 << 40, nil },
	}, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})
	if _, err := s.Submit(reqN(0)); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("submit with failpointed free space: err = %v, want ErrDiskFull", err)
	}
}

// --- Circuit breaker ---

func TestBreakerSetStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreakerSet(3, 30*time.Second)
	b.now = func() time.Time { return now }
	key := "B4|default"

	for i := 0; i < 2; i++ {
		if st, _, changed := b.onResult(key, false); changed {
			t.Fatalf("fail %d journaled transition %q, want silent", i, st)
		}
		if _, ok := b.allow(key); !ok {
			t.Fatalf("closed breaker rejected after %d fails", i+1)
		}
	}
	st, fails, changed := b.onResult(key, false)
	if !changed || st != BreakerOpen || fails != 3 {
		t.Fatalf("third fail: (%q,%d,%v), want (open,3,true)", st, fails, changed)
	}
	if ra, ok := b.allow(key); ok || ra <= 0 {
		t.Fatalf("open breaker admitted (ra %v)", ra)
	}

	now = now.Add(31 * time.Second)
	if _, ok := b.allow(key); !ok {
		t.Fatal("post-cooldown probe rejected")
	}
	// Only one probe at a time.
	if _, ok := b.allow(key); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure reopens for a full cooldown.
	if st, _, changed := b.onResult(key, false); !changed || st != BreakerOpen {
		t.Fatalf("failed probe: (%q,%v), want (open,true)", st, changed)
	}
	if _, ok := b.allow(key); ok {
		t.Fatal("reopened breaker admitted immediately")
	}
	now = now.Add(31 * time.Second)
	if _, ok := b.allow(key); !ok {
		t.Fatal("second probe rejected")
	}
	if st, _, changed := b.onResult(key, true); !changed || st != BreakerClosed {
		t.Fatalf("successful probe: (%q,%v), want (closed,true)", st, changed)
	}
	if _, ok := b.allow(key); !ok {
		t.Fatal("closed breaker rejected")
	}
	if len(b.snapshot()) != 0 {
		t.Fatalf("closed breaker still tracked: %+v", b.snapshot())
	}
}

func TestBreakerCancelProbeFreesSlot(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreakerSet(1, 10*time.Second)
	b.now = func() time.Time { return now }
	key := "B4|fast"
	b.onResult(key, false) // opens
	now = now.Add(11 * time.Second)
	if _, ok := b.allow(key); !ok {
		t.Fatal("probe rejected")
	}
	b.cancelProbe(key) // probe never ran (journal refused, tenant quota...)
	if _, ok := b.allow(key); !ok {
		t.Fatal("slot not freed after cancelProbe")
	}
}

// TestBreakerIntegration opens a circuit by poisoning one chip via the
// per-unit run failpoint, checks fast-fail with Retry-After, half-opens
// after cooldown and closes on the successful probe.
func TestBreakerIntegration(t *testing.T) {
	defer failpoint.Disable()
	if err := failpoint.Enable("serve.run.B4=error(poisoned)", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	s := newTestServer(t, Config{
		Jobs: 1, QueueDepth: 8,
		BreakerThreshold: 2, BreakerCooldown: 30 * time.Millisecond,
	}, nil) // nil runner = real runPipeline, so the failpoint site fires
	// Use the fast profile so a probe run after the failpoint clears is
	// quick; vary FaultSeed to give each submission a distinct
	// fingerprint without disturbing the geometry.
	submit := func(n int) (JobStatus, error) {
		return s.Submit(Request{Chip: "B4", Profile: "fast", FaultSeed: int64(n + 1)})
	}
	// Real-pipeline runs can be slow under the race detector; poll with a
	// generous deadline instead of waitState's 10s.
	waitLong := func(id string, want State) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Minute)
		for {
			st, ok := s.Status(id)
			if !ok {
				t.Fatalf("job %s vanished", id)
			}
			if st.State == want {
				return
			}
			if st.State.terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s: state %s, want %s (err %q)", id, st.State, want, st.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for i := 0; i < 2; i++ {
		st, err := submit(i)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitLong(st.ID, StateFailed)
	}
	var open *BreakerOpenError
	if _, err := submit(2); !errors.As(err, &open) {
		t.Fatalf("submit with open breaker: err = %v, want BreakerOpenError", err)
	}
	if open.Unit != "B4" || open.Profile != "fast" || open.RetryAfterSeconds() < 1 {
		t.Fatalf("BreakerOpenError = %+v", open)
	}
	if counter(s, "serve.breaker_rejected") != 1 {
		t.Fatalf("serve.breaker_rejected = %d, want 1", counter(s, "serve.breaker_rejected"))
	}
	// Other units are not fenced.
	if _, err := s.Submit(Request{Chip: "C4", Profile: "fast"}); err != nil {
		t.Fatalf("other unit rejected: %v", err)
	}

	failpoint.Disable()
	time.Sleep(40 * time.Millisecond) // past cooldown
	st, err := submit(3)              // the single probe
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	waitLong(st.ID, StateDone)
	if counter(s, "serve.breaker_closed") != 1 {
		t.Fatalf("serve.breaker_closed = %d, want 1", counter(s, "serve.breaker_closed"))
	}
	if gauges := s.MetricsSnapshot().Gauges; len(filterKeys(gauges, "serve.breaker_state")) != 0 {
		t.Fatalf("breaker gauge still exported after close: %v", gauges)
	}
}

func filterKeys(m map[string]float64, prefix string) []string {
	var out []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// TestBreakerSurvivesRestart journals an open circuit and checks the
// next life still fast-fails the unit.
func TestBreakerSurvivesRestart(t *testing.T) {
	defer failpoint.Disable()
	if err := failpoint.Enable("serve.run.B4=error(poisoned)", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	journal := filepath.Join(t.TempDir(), "journal.db")
	cfg := Config{
		Jobs: 1, QueueDepth: 8, JournalPath: journal,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
		Obs: &obs.Observer{Metrics: obs.NewMetrics()},
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	st, err := s.Submit(Request{Chip: "B4", Profile: "fast"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, st.ID, StateFailed)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	s2 := newTestServer(t, cfg, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})
	var open *BreakerOpenError
	if _, err := s2.Submit(Request{Chip: "B4", Profile: "fast", VoxelNM: 12}); !errors.As(err, &open) {
		t.Fatalf("submit after restart: err = %v, want BreakerOpenError", err)
	}
	if gauges := s2.MetricsSnapshot().Gauges; len(filterKeys(gauges, "serve.breaker_state")) != 1 {
		t.Fatalf("restored breaker gauge missing: %v", gauges)
	}
}

// --- Deadline propagation ---

func TestDeadlineShedWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	if _, err := s.Submit(reqN(0)); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-started
	q := reqN(1)
	q.DeadlineMS = 20
	st, err := s.Submit(q)
	if err != nil {
		t.Fatalf("submit deadline job: %v", err)
	}
	if st.DeadlineMS != 20 {
		t.Fatalf("JobStatus.DeadlineMS = %d, want 20", st.DeadlineMS)
	}
	time.Sleep(40 * time.Millisecond)
	close(release) // worker frees and pops the expired job

	fin := waitState(t, s, st.ID, StateCanceled)
	if !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("cause = %q, want a deadline cause", fin.Error)
	}
	if counter(s, "serve.deadline_shed") != 1 {
		t.Fatalf("serve.deadline_shed = %d, want 1", counter(s, "serve.deadline_shed"))
	}
}

func TestDeadlineExpiresRunningJob(t *testing.T) {
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, BreakerThreshold: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	q := reqN(0)
	q.DeadlineMS = 30
	st, err := s.Submit(q)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin := waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(fin.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("cause = %q, want DeadlineExceeded", fin.Error)
	}
	// A client-deadline failure must not charge the breaker (threshold 1
	// would have opened it).
	if _, err := s.Submit(reqN(1)); err != nil {
		t.Fatalf("submit after deadline failure: %v (breaker wrongly charged?)", err)
	}
}

func TestDeadlineHeaderParsedAndRejected(t *testing.T) {
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			return stubArtifacts(req.Chip), nil
		})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	post := func(deadline string) *http.Response {
		body, _ := json.Marshal(reqN(0))
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(deadlineHeader, deadline)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}
	resp := post("30000")
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if st.DeadlineMS != 30000 {
		t.Fatalf("DeadlineMS = %d, want 30000 (header not propagated)", st.DeadlineMS)
	}
	resp = post("not-a-number")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header: HTTP %d, want 400", resp.StatusCode)
	}
	// Negative deadline in the body is the client's fault: 400, not 500.
	body := `{"chip":"B4","deadline_ms":-5}`
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestDeadlineShedAtRecovery proves a client deadline survives a
// restart: a job interrupted by shutdown is journaled as interrupted,
// and when the outage outlives its deadline, recovery sheds it as
// canceled(deadline) instead of rerunning it. The runner returns only
// when its context ends, never with a result, so the job cannot finish
// done before Close interrupts it.
func TestDeadlineShedAtRecovery(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.db")
	cfg := Config{
		Jobs: 1, QueueDepth: 8, JournalPath: journal,
		Obs: &obs.Observer{Metrics: obs.NewMetrics()},
		runner: func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	q := reqN(0)
	q.DeadlineMS = 50
	st, err := s.Submit(q)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(70 * time.Millisecond) // outage outlives the deadline

	cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	cfg.runner = func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		t.Error("expired job was rerun")
		return stubArtifacts(req.Chip), nil
	}
	s2 := newTestServer(t, cfg, cfg.runner)
	got, ok := s2.Status(st.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", st.ID)
	}
	if got.State != StateCanceled || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("recovered job: state %s err %q, want canceled(deadline)", got.State, got.Error)
	}
}

// --- Journal failpoints: the durability invariant under injected faults ---

// TestJournalENOSPCFailpoint proves a submission whose accept record hit
// ENOSPC is cleanly refused (retryable 503 error class) and that the
// journal's durable prefix — the acked jobs — survives a restart
// byte-identically.
func TestJournalENOSPCFailpoint(t *testing.T) {
	defer failpoint.Disable()
	journal := filepath.Join(t.TempDir(), "journal.db")
	done := func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	}
	cfg := Config{
		Jobs: 1, QueueDepth: 8, JournalPath: journal,
		Obs: &obs.Observer{Metrics: obs.NewMetrics()}, runner: done,
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	st1, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	waitState(t, s, st1.ID, StateDone)

	if err := failpoint.Enable("journal.append=enospc", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	if _, err := s.Submit(reqN(1)); !errors.Is(err, ErrJournal) {
		t.Fatalf("submit under ENOSPC: err = %v, want ErrJournal", err)
	}
	failpoint.Disable()

	st3, err := s.Submit(reqN(2))
	if err != nil {
		t.Fatalf("submit after fault cleared: %v", err)
	}
	waitState(t, s, st3.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, _, torn, err := ReadJournal(journal)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if torn != 0 {
		t.Fatalf("journal has %d torn bytes after rollback, want 0", torn)
	}
	jobs := replayJournal(recs)
	if len(jobs) != 2 {
		t.Fatalf("journal replays %d jobs, want 2 (the acked ones)", len(jobs))
	}
	for _, id := range []string{st1.ID, st3.ID} {
		if _, ok := jobs[id]; !ok {
			t.Fatalf("acked job %s missing from journal", id)
		}
	}

	cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	s2 := newTestServer(t, cfg, done)
	for _, id := range []string{st1.ID, st3.ID} {
		if got, ok := s2.Status(id); !ok || got.State != StateDone {
			t.Fatalf("acked job %s after restart: ok=%v state=%v", id, ok, got.State)
		}
	}
}

// TestJournalTornFailpoint tears an append mid-frame: the submission is
// refused, the poisoned handle refuses everything after it, and the next
// life truncates the torn tail and recovers exactly the acked jobs.
func TestJournalTornFailpoint(t *testing.T) {
	defer failpoint.Disable()
	journal := filepath.Join(t.TempDir(), "journal.db")
	done := func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	}
	cfg := Config{
		Jobs: 1, QueueDepth: 8, JournalPath: journal,
		Obs: &obs.Observer{Metrics: obs.NewMetrics()}, runner: done,
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	st1, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	waitState(t, s, st1.ID, StateDone)

	if err := failpoint.Enable("journal.append=torn", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	if _, err := s.Submit(reqN(1)); !errors.Is(err, ErrJournal) {
		t.Fatalf("torn submit: err = %v, want ErrJournal", err)
	}
	failpoint.Disable()
	// The handle is poisoned: even healthy appends are refused until a
	// restart re-verifies the file.
	if !s.journal.Broken() {
		t.Fatal("journal not marked broken after unrepaired torn write")
	}
	if _, err := s.Submit(reqN(2)); !errors.Is(err, ErrJournal) {
		t.Fatalf("submit on broken journal: err = %v, want ErrJournal", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, _, torn, err := ReadJournal(journal)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if torn == 0 {
		t.Fatal("expected a torn tail on disk")
	}
	cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	s2 := newTestServer(t, cfg, done)
	if got, ok := s2.Status(st1.ID); !ok || got.State != StateDone {
		t.Fatalf("acked job after torn recovery: ok=%v state=%v", ok, got.State)
	}
	if len(s2.List()) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (un-acked ones must not replay)", len(s2.List()))
	}
	// The recovered journal is clean and appendable again.
	st3, err := s2.Submit(reqN(3))
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	waitState(t, s2, st3.ID, StateDone)
}

// TestPublishFailpoint fails the artifact publish: the job still
// completes (publish is best-effort for the submitter) but nothing is
// cached, so an identical submission recomputes.
func TestPublishFailpoint(t *testing.T) {
	defer failpoint.Disable()
	if err := failpoint.Enable("serve.publish=error(injected publish fault)", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	var runs atomic.Int64
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, Cache: store},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			return stubArtifacts(req.Chip), nil
		})
	st, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, st.ID, StateDone)
	failpoint.Disable()
	st2, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitState(t, s, st2.ID, StateDone)
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2 (failed publish must not populate the cache)", got)
	}
}

func TestSubmitShedHTTP503WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, ShedTarget: 5 * time.Millisecond},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	defer close(release)
	if _, err := s.Submit(reqN(0)); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-started
	if _, err := s.Submit(reqN(1)); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	time.Sleep(25 * time.Millisecond)

	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	body, _ := json.Marshal(reqN(2))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
}

// TestOverloadGaugesExported checks the scrape-time gauges the top view
// and the smoke's metricscheck -require assertions read.
func TestOverloadGaugesExported(t *testing.T) {
	s := newTestServer(t, Config{
		Jobs: 1, QueueDepth: 8, ShedTarget: time.Second,
		JournalPath:   filepath.Join(t.TempDir(), "journal.db"),
		DiskHardBytes: 1, diskPoll: time.Hour,
		diskFree: func(string) (int64, error) { return 1 << 30, nil },
	}, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})
	g := s.MetricsSnapshot().Gauges
	if _, ok := g["serve.shed_level"]; !ok {
		t.Fatalf("serve.shed_level gauge missing: %v", g)
	}
	if _, ok := g["serve.disk_free_bytes"]; !ok {
		t.Fatalf("serve.disk_free_bytes gauge missing: %v", g)
	}
	if g["serve.disk_pressure"] != float64(diskOK) {
		t.Fatalf("serve.disk_pressure = %v, want %d", g["serve.disk_pressure"], diskOK)
	}
}

// fmt is referenced by helpers above in some configurations; keep the
// import honest.
var _ = fmt.Sprintf
