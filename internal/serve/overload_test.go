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
	"repro/internal/par"
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

// --- Shedding control law ---

func TestOverloadLevelControlLaw(t *testing.T) {
	c := newOverloadController(10 * time.Millisecond)
	if c.shedding(0) {
		t.Fatal("empty controller sheds")
	}
	// Head-of-line age alone lifts the verdict (a stalled pool measures
	// no dequeues), but only past twice the target.
	if c.shedding(15 * time.Millisecond) {
		t.Fatal("shedding at 15ms, below 2x the 10ms target")
	}
	if !c.shedding(25 * time.Millisecond) {
		t.Fatal("not shedding at 25ms, above 2x the 10ms target")
	}
	// A windowed minimum above 2x the target also lifts it, even with an
	// empty queue right now.
	c.observeDelay(22 * time.Millisecond)
	if !c.shedding(0) {
		t.Fatal("not shedding after a 22ms windowed minimum")
	}
	// The minimum, not the maximum: one slow dequeue among fast ones is a
	// burst, not a standing queue.
	c2 := newOverloadController(10 * time.Millisecond)
	c2.observeDelay(500 * time.Millisecond)
	c2.observeDelay(1 * time.Millisecond)
	if c2.shedding(0) {
		t.Fatal("shedding after a burst (min wins)")
	}
}

func TestOverloadDisabledWhenNoTarget(t *testing.T) {
	c := newOverloadController(0)
	c.observeDelay(time.Hour)
	if c.shedding(time.Hour) {
		t.Fatal("disabled controller sheds")
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

// --- The sweep after every run ---

// TestSweepAfterRunWithoutPublish: a run that ends without publishing
// still sweeps the cache once it is over. Its client cancels it after it
// checkpointed under its key; the sweep then runs and evicts that entry,
// which the finished job no longer pins.
func TestSweepAfterRunWithoutPublish(t *testing.T) {
	store := openStore(t)
	req := reqN(0)
	key, err := req.identity()
	if err != nil {
		t.Fatal(err)
	}
	netex := ckpt.Key{Unit: key.Unit, Fingerprint: key.Fingerprint, Stage: "netex"}
	running := make(chan struct{})
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, Cache: store, CacheBytes: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			if err := store.Put(netex, []byte("checkpoint")); err != nil {
				return nil, err
			}
			close(running)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	sweeps := counter(s, "serve.gc_runs")
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateCanceled)
	deadline := time.Now().Add(5 * time.Second)
	for counter(s, "serve.gc_runs") == sweeps {
		if time.Now().After(deadline) {
			t.Fatal("a canceled run never swept the cache")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, state := store.Get(netex); state != ckpt.StateMiss {
		t.Fatalf("unpinned entry of the canceled run: state %v after the sweep, want evicted", state)
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
		DiskHardBytes: 100, diskPoll: 5 * time.Millisecond,
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

// --- Failure entries ---

// errPoisoned is the deterministic engine error the failure-entry tests'
// stub runners return for a poisoned request.
var errPoisoned = errors.New("netex: no bitline-connected latch blocks")

// poisonedRunner fails every request equal to bad and builds stub
// artifacts for every other, counting runs.
func poisonedRunner(bad Request, runs *atomic.Int64) func(context.Context, Request, int, *obs.Observer) (map[string][]byte, error) {
	return func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		runs.Add(1)
		if req == bad {
			return nil, errPoisoned
		}
		return stubArtifacts(req.Chip), nil
	}
}

func openStore(t *testing.T) *ckpt.Store {
	t.Helper()
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestFailureEntryFailsIdenticalResubmission: a deterministic failure
// becomes one serve.failure entry under the request's unit and
// fingerprint, and an identical resubmission fails at submit time with
// the same text — over HTTP as a 200 — without a run.
func TestFailureEntryFailsIdenticalResubmission(t *testing.T) {
	store := openStore(t)
	bad := reqN(1)
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1, Cache: store}, poisonedRunner(bad, &runs))
	first, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, first.ID, StateFailed)
	if failed.Error != errPoisoned.Error() {
		t.Fatalf("first run error %q, want %q", failed.Error, errPoisoned)
	}
	key, _ := bad.identity()
	if got := failureLookup(store, key, nil); got != failed.Error {
		t.Fatalf("failure entry %q, want %q", got, failed.Error)
	}
	if got := counter(s, "serve.runs"); got != 1 {
		t.Fatalf("serve.runs = %d after one failed run, want 1", got)
	}

	again, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateFailed || again.Error != failed.Error || again.RunMS != 0 {
		t.Fatalf("identical resubmission: state %s error %q run_ms %v, want failed at once with %q",
			again.State, again.Error, again.RunMS, failed.Error)
	}
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	body, _ := json.Marshal(bad)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var viaHTTP JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&viaHTTP); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || viaHTTP.State != StateFailed || viaHTTP.Error != failed.Error {
		t.Fatalf("HTTP resubmission: %d %s %q, want 200 failed %q", resp.StatusCode, viaHTTP.State, viaHTTP.Error, failed.Error)
	}
	if got := counter(s, "serve.runs"); got != 1 {
		t.Fatalf("serve.runs = %d after identical resubmissions, want 1", got)
	}
	if got := counter(s, "serve.failure_hits"); got != 2 {
		t.Fatalf("serve.failure_hits = %d, want 2", got)
	}
	if runs.Load() != 1 {
		t.Fatalf("runner called %d times, want 1", runs.Load())
	}
}

// TestFailureEntrySiblingsRun: the entry fences one identity, not a
// chip or a profile. Another voxel size, another fault seed and another
// chip each run.
func TestFailureEntrySiblingsRun(t *testing.T) {
	store := openStore(t)
	bad := Request{Chip: "B4", Profile: "fast", Faults: true, FaultSeed: 3}
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1, Cache: store}, poisonedRunner(bad, &runs))
	st, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateFailed)
	voxel, seed, chip := bad, bad, bad
	voxel.VoxelNM = 12
	seed.FaultSeed = 4
	chip.Chip = "C4"
	for _, sib := range []Request{voxel, seed, chip} {
		st, err := s.Submit(sib)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("sibling %+v: state %s at submit (%q), want queued", sib, st.State, st.Error)
		}
		waitState(t, s, st.ID, StateDone)
	}
	if runs.Load() != 4 {
		t.Fatalf("runner called %d times, want 4 (the failure and three siblings)", runs.Load())
	}
}

// TestFailureEntryIntegration poisons one chip with the per-unit run
// failpoint under the real runner: the failure is stored, an identical
// request and a views request with the same options both fail at once
// without a run, and another chip runs to done.
func TestFailureEntryIntegration(t *testing.T) {
	defer failpoint.Disable()
	if err := failpoint.Enable("serve.run.B4=error(poisoned chip)", 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	store := openStore(t)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, Cache: store}, nil) // real runPipeline
	plain := Request{Chip: "B4", Profile: "fast"}
	st, err := s.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(failed.Error, "poisoned chip") {
		t.Fatalf("poisoned job error %q", failed.Error)
	}
	views := plain
	views.Views = true
	for _, req := range []Request{plain, views} {
		again, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if again.State != StateFailed || again.Error != failed.Error {
			t.Fatalf("resubmission views=%v: state %s error %q, want failed at once with %q",
				req.Views, again.State, again.Error, failed.Error)
		}
	}
	if got := counter(s, "serve.runs"); got != 1 {
		t.Fatalf("serve.runs = %d, want 1", got)
	}
	other, err := s.Submit(Request{Chip: "C4", Profile: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, other.ID)
}

// TestFailureEntrySurvivesRestart: the entry lives in the cache, so the
// next life fails an identical request without a run, and a journaled
// job still queued when the entry was written completes failed at
// recovery, the way a job whose result was published completes done.
func TestFailureEntrySurvivesRestart(t *testing.T) {
	store := openStore(t)
	journal := filepath.Join(t.TempDir(), "journal.db")
	bad, queued := reqN(1), reqN(2)
	release := make(chan struct{})
	running := make(chan struct{}, 4)
	cfg := Config{Jobs: 1, QueueDepth: 8, JournalPath: journal, Cache: store,
		Obs: &obs.Observer{Metrics: obs.NewMetrics()},
		runner: func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			if req == bad {
				return nil, errPoisoned
			}
			running <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, st.ID, StateFailed)
	if _, err := s.Submit(reqN(0)); err != nil { // wedges the worker
		t.Fatal(err)
	}
	<-running
	live, err := s.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}
	// Another life of the server stored queued's failure before this one
	// got to run it.
	queuedKey, _ := queued.identity()
	if err := failureStore(store, queuedKey, errPoisoned); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var runs atomic.Int64
	cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	s2 := newTestServer(t, cfg, func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		runs.Add(1)
		return stubArtifacts(req.Chip), nil
	})
	if got := waitState(t, s2, live.ID, StateFailed); got.Error != errPoisoned.Error() {
		t.Fatalf("recovered job error %q, want %q", got.Error, errPoisoned)
	}
	again, err := s2.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateFailed || again.Error != failed.Error {
		t.Fatalf("submit after restart: state %s error %q, want failed at once with %q", again.State, again.Error, failed.Error)
	}
	waitState(t, s2, "job-000002", StateDone) // the wedged job reruns
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner called %d times after restart, want 1 (only the interrupted job)", got)
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
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, Cache: openStore(t)},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
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
	// A client's too-tight deadline says nothing about the request: the
	// identical request runs again instead of failing from the cache.
	again, err := s.Submit(q)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.State != StateQueued {
		t.Fatalf("identical resubmission after a deadline: state %s (%q), want queued", again.State, again.Error)
	}
	waitState(t, s, again.ID, StateFailed)
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2", got)
	}
}

// TestNonDeterministicEndsStoreNoFailure: a client cancel, server
// shutdown, a panic and Config.Timeout each end a run without a verdict
// on the request, so none stores a failure entry and the identical
// request runs again.
func TestNonDeterministicEndsStoreNoFailure(t *testing.T) {
	req := reqN(0)
	key, _ := req.identity()
	// blockingRunner runs until its context ends, then fails with an
	// error that does not wrap the context's: the run's context, not
	// the error, says the run was cut short. Later calls finish.
	blockingRunner := func(runs *atomic.Int64, running chan<- struct{}) func(context.Context, Request, int, *obs.Observer) (map[string][]byte, error) {
		return func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			if runs.Add(1) > 1 {
				return stubArtifacts(req.Chip), nil
			}
			running <- struct{}{}
			<-ctx.Done()
			return nil, errors.New("core: stream aborted")
		}
	}
	// rerun submits req again and checks it runs to done.
	rerun := func(t *testing.T, s *Server, store *ckpt.Store) {
		t.Helper()
		if got := failureLookup(store, key, nil); got != "" {
			t.Fatalf("failure entry stored: %q", got)
		}
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("identical resubmission: state %s (%q), want queued", st.State, st.Error)
		}
		waitState(t, s, st.ID, StateDone)
	}

	t.Run("cancel", func(t *testing.T) {
		store := openStore(t)
		var runs atomic.Int64
		running := make(chan struct{}, 1)
		s := newTestServer(t, Config{Jobs: 1, Cache: store}, blockingRunner(&runs, running))
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-running
		if _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateCanceled)
		rerun(t, s, store)
	})
	t.Run("shutdown", func(t *testing.T) {
		store := openStore(t)
		var runs atomic.Int64
		running := make(chan struct{}, 1)
		s, err := NewServer(Config{Jobs: 1, Cache: store, Obs: &obs.Observer{Metrics: obs.NewMetrics()},
			runner: blockingRunner(&runs, running)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
		<-running
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		rerun(t, newTestServer(t, Config{Jobs: 1, Cache: store}, okRunner), store)
	})
	t.Run("panic", func(t *testing.T) {
		store := openStore(t)
		var runs atomic.Int64
		s := newTestServer(t, Config{Jobs: 1, Cache: store},
			func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
				if runs.Add(1) == 1 {
					return nil, fmt.Errorf("B4: %w", &par.PanicError{Index: 0, Value: "poisoned slice"})
				}
				return stubArtifacts(req.Chip), nil
			})
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateFailed)
		rerun(t, s, store)
	})
	t.Run("timeout", func(t *testing.T) {
		store := openStore(t)
		s := newTestServer(t, Config{Jobs: 1, Cache: store, Timeout: time.Millisecond}, nil) // real runner
		slow := Request{Chip: "B4", Profile: "fast"}
		for i := 1; i <= 2; i++ {
			st, err := s.Submit(slow)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateQueued {
				t.Fatalf("submission %d: state %s (%q), want queued", i, st.State, st.Error)
			}
			fin := waitState(t, s, st.ID, StateFailed)
			if !strings.Contains(fin.Error, context.DeadlineExceeded.Error()) {
				t.Fatalf("submission %d: error %q, want DeadlineExceeded", i, fin.Error)
			}
		}
		if got := counter(s, "serve.runs"); got != 2 {
			t.Fatalf("serve.runs = %d, want 2", got)
		}
	})
}

// TestNoBrownoutFieldRejected pins the HTTP contract for the removed
// no_brownout field: the body decoder disallows unknown fields, so a
// client still sending it gets 400.
func TestNoBrownoutFieldRejected(t *testing.T) {
	s := newTestServer(t, Config{Jobs: 1}, okRunner)
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"chip":"B4","no_brownout":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no_brownout body: HTTP %d, want 400", resp.StatusCode)
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
