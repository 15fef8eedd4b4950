package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/sem"
)

// newTestServer builds a server whose runner is the given stub, so the
// scheduling machinery is exercised without real pipeline runs.
func newTestServer(t *testing.T, cfg Config, runner func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error)) *Server {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	}
	cfg.runner = runner
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s, want %s (err %q)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func counter(s *Server, name string) int64 {
	return s.FleetSnapshot().Counters[name]
}

// reqN returns a valid request whose fingerprint is unique per n (the
// voxel override is result-affecting, so it lands in the fingerprint).
func reqN(n int) Request {
	return Request{Chip: "B4", Profile: "fast", VoxelNM: int64(8 + 4*n)}
}

func stubArtifacts(tag string) map[string][]byte {
	return map[string][]byte{
		ArtifactReport: []byte(`{"tag":"` + tag + `"}` + "\n"),
		ArtifactGDS:    []byte("GDS:" + tag),
	}
}

// TestSubmitBoundsOverrides pins the numeric override bounds: units
// above maxUnits and voxel_nm below minVoxelNM are the client's fault
// (ErrBadRequest), while every value the repository's tests, smokes and
// profiles submit is still queued. The stub runner generates nothing.
func TestSubmitBoundsOverrides(t *testing.T) {
	s := newTestServer(t, Config{Jobs: 1}, okRunner)
	for _, tc := range []struct {
		units int
		voxel int64
		ok    bool
	}{
		{units: 1, ok: true},
		{units: 4, ok: true},
		{units: maxUnits, ok: true},
		{voxel: minVoxelNM, ok: true},
		{voxel: 16, ok: true},
		{units: maxUnits, voxel: minVoxelNM, ok: true},
		{units: maxUnits + 1},
		{units: 1000000},
		{voxel: minVoxelNM - 1},
		{voxel: 1},
	} {
		req := Request{Chip: "B4", Profile: "fast", Units: tc.units, VoxelNM: tc.voxel}
		_, err := s.Submit(req)
		if tc.ok && err != nil {
			t.Errorf("units=%d voxel_nm=%d: rejected: %v", tc.units, tc.voxel, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadRequest) {
			t.Errorf("units=%d voxel_nm=%d: err = %v, want ErrBadRequest", tc.units, tc.voxel, err)
		}
	}
}

// TestQueueUnderLoad fills the queue behind a blocked worker: the
// bounded queue accepts exactly QueueDepth pending jobs, rejects the
// next with ErrQueueFull, and drains everything once the worker frees.
func TestQueueUnderLoad(t *testing.T) {
	release := make(chan struct{})
	running := make(chan string, 8)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 2},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			running <- req.Chip
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	first, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the first job")
	}

	var queued []string
	for i := 1; ; i++ {
		st, err := s.Submit(reqN(i))
		if errors.Is(err, ErrQueueFull) {
			if len(queued) != 2 {
				t.Fatalf("queue accepted %d pending jobs, want 2", len(queued))
			}
			break
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st.State != StateQueued {
			t.Fatalf("job %d: state %s, want queued", i, st.State)
		}
		queued = append(queued, st.ID)
		if i > 10 {
			t.Fatal("queue never filled")
		}
	}
	if got := counter(s, "serve.queue_full"); got != 1 {
		t.Fatalf("serve.queue_full = %d, want 1", got)
	}

	close(release)
	waitState(t, s, first.ID, StateDone)
	for _, id := range queued {
		waitState(t, s, id, StateDone)
	}
	if got := counter(s, "serve.runs"); got != 3 {
		t.Fatalf("serve.runs = %d, want 3", got)
	}
}

// TestCancelMidJobFreesWorker cancels a running job and proves the
// worker slot is actually reclaimed by running another job through it.
func TestCancelMidJobFreesWorker(t *testing.T) {
	running := make(chan struct{}, 8)
	s := newTestServer(t, Config{Jobs: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			running <- struct{}{}
			if req.VoxelNM >= 16 { // second job: finish immediately
				return stubArtifacts(req.Chip), nil
			}
			<-ctx.Done() // first job: only cancellation ends it
			return nil, ctx.Err()
		})

	first, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st := waitState(t, s, first.ID, StateCanceled)
	if st.Error == "" {
		t.Fatal("canceled job reports no cause")
	}

	// The freed worker must pick up and finish a fresh job.
	second, err := s.Submit(reqN(2))
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	waitState(t, s, second.ID, StateDone)

	// Canceling a terminal job is a no-op, not an error.
	if st, err := s.Cancel(first.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("re-cancel: state %s err %v", st.State, err)
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 4},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	if _, err := s.Submit(reqN(0)); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, err := s.Submit(reqN(1))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued cancel: state %s, want canceled immediately", st.State)
	}
}

// TestInflightDedupe submits the same request twice while the first is
// still running: the second attaches as a follower, the runner executes
// once, and both jobs finish with byte-identical artifacts.
func TestInflightDedupe(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 2},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			running <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	leader, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit leader: %v", err)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never started")
	}
	follower, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit follower: %v", err)
	}
	if follower.DedupedOf != leader.ID {
		t.Fatalf("follower deduped_of %q, want %q", follower.DedupedOf, leader.ID)
	}
	if follower.Fingerprint != leader.Fingerprint {
		t.Fatalf("fingerprints differ: %q vs %q", follower.Fingerprint, leader.Fingerprint)
	}

	close(release)
	waitState(t, s, leader.ID, StateDone)
	fst := waitState(t, s, follower.ID, StateDone)
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times for identical submissions, want 1", runs.Load())
	}
	if !fst.CacheHit {
		t.Fatal("follower does not report cache_hit")
	}
	for _, name := range []string{ArtifactReport, ArtifactGDS} {
		a, err1 := s.Artifact(leader.ID, name)
		b, err2 := s.Artifact(follower.ID, name)
		if err1 != nil || err2 != nil {
			t.Fatalf("artifact %s: %v / %v", name, err1, err2)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("artifact %s differs between leader and follower", name)
		}
	}
	if got := counter(s, "serve.dedup_served"); got != 1 {
		t.Fatalf("serve.dedup_served = %d, want 1", got)
	}
}

// TestDedupeFailurePropagates: a deterministic failure serves every
// attached follower the same error instead of recomputing.
func TestDedupeFailurePropagates(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			running <- struct{}{}
			<-release
			return nil, errors.New("boom")
		})
	leader, _ := s.Submit(reqN(0))
	<-running
	follower, _ := s.Submit(reqN(0))
	close(release)
	waitState(t, s, leader.ID, StateFailed)
	fst := waitState(t, s, follower.ID, StateFailed)
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times, want 1", runs.Load())
	}
	if !strings.Contains(fst.Error, leader.ID) || !strings.Contains(fst.Error, "boom") {
		t.Fatalf("follower error %q does not propagate leader failure", fst.Error)
	}
}

// TestCancelPromotesFollower: canceling the running leader requeues the
// follower as a new leader — the follower did not ask to be canceled.
func TestCancelPromotesFollower(t *testing.T) {
	running := make(chan struct{}, 8)
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			n := runs.Add(1)
			running <- struct{}{}
			if n == 1 { // leader: wait for its cancellation
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return stubArtifacts(req.Chip), nil
		})
	leader, _ := s.Submit(reqN(0))
	<-running
	follower, _ := s.Submit(reqN(0))
	if _, err := s.Cancel(leader.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, s, leader.ID, StateCanceled)
	fst := waitState(t, s, follower.ID, StateDone)
	if runs.Load() != 2 {
		t.Fatalf("runner executed %d times, want 2 (follower recomputes)", runs.Load())
	}
	if fst.CacheHit {
		t.Fatal("promoted follower wrongly reports cache_hit")
	}
}

// TestResultCacheAcrossServers: artifacts published into the shared
// store satisfy an identical submission at submit time — in the same
// server and in a fresh one over the same store (restart survival).
func TestResultCacheAcrossServers(t *testing.T) {
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	runner := func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
		runs.Add(1)
		return stubArtifacts("cached"), nil
	}
	s := newTestServer(t, Config{Jobs: 1, Cache: store}, runner)
	first, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, first.ID, StateDone)

	second, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("resubmit: state %s cache_hit %v, want done via cache at submit time", second.State, second.CacheHit)
	}
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times, want 1", runs.Load())
	}
	if got := counter(s, "serve.cache_hits"); got != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", got)
	}

	// A different fingerprint misses.
	miss, err := s.Submit(reqN(1))
	if err != nil {
		t.Fatalf("submit miss: %v", err)
	}
	if miss.State == StateDone {
		t.Fatal("different options wrongly hit the cache")
	}
	waitState(t, s, miss.ID, StateDone)

	// A fresh server over the same store sees the cached result.
	s2 := newTestServer(t, Config{Jobs: 1, Cache: store}, runner)
	third, err := s2.Submit(reqN(0))
	if err != nil {
		t.Fatalf("submit on restarted server: %v", err)
	}
	if third.State != StateDone || !third.CacheHit {
		t.Fatalf("restart: state %s cache_hit %v, want cached", third.State, third.CacheHit)
	}
	a, _ := s.Artifact(first.ID, ArtifactGDS)
	b, _ := s2.Artifact(third.ID, ArtifactGDS)
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatal("cached artifact bytes differ across servers")
	}
}

// TestCacheCorruptEntryRecomputed: a bit-flipped cache entry is
// detected, healed by deletion, and the job recomputes.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1, Cache: store},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			return stubArtifacts("x"), nil
		})
	first, _ := s.Submit(reqN(0))
	waitState(t, s, first.ID, StateDone)

	// Corrupt the manifest entry on disk.
	unit, fp, _, err := reqN(0).identity()
	if err != nil {
		t.Fatal(err)
	}
	if err := corruptEntry(store, cacheKey(unit, fp, manifestStage)); err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(reqN(0))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second.State == StateDone {
		t.Fatal("corrupt cache entry wrongly served")
	}
	waitState(t, s, second.ID, StateDone)
	if runs.Load() != 2 {
		t.Fatalf("runner executed %d times, want 2 (recompute after corruption)", runs.Load())
	}
	if got := counter(s, "serve.cache_corrupt"); got != 1 {
		t.Fatalf("serve.cache_corrupt = %d, want 1", got)
	}
}

// corruptEntry flips one payload byte of a store entry in place,
// reconstructing the store's on-disk layout (dir/unit/fp/stage.ckpt).
func corruptEntry(store *ckpt.Store, k ckpt.Key) error {
	path := filepath.Join(store.Dir(), filepath.FromSlash(k.Unit),
		k.Fingerprint, filepath.FromSlash(k.Stage)+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)-1] ^= 0x01
	return os.WriteFile(path, data, 0o644)
}

// TestHTTPAPI drives the full submit / poll / artifact / cancel /
// events / health surface over real HTTP.
func TestHTTPAPI(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s := newTestServer(t, Config{Jobs: 1},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			running <- struct{}{}
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	// Bad submissions: malformed JSON, unknown field, unknown chip.
	if resp, _ := post("/v1/jobs", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/jobs", `{"chip":"B4","bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field submit: %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/jobs", `{"chip":"Z9"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-chip submit: %d", resp.StatusCode)
	}

	resp, body := post("/v1/jobs", `{"chip":"B4","profile":"fast","tenant":"t1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	<-running

	// Artifacts before completion: 409, client should keep polling.
	if resp, _ := get("/v1/jobs/" + st.ID + "/artifacts/report.json"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("early artifact: %d, want 409", resp.StatusCode)
	}
	close(release)
	waitState(t, s, st.ID, StateDone)

	resp, body = get("/v1/jobs/" + st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var done JobStatus
	if err := json.Unmarshal(body, &done); err != nil || done.State != StateDone {
		t.Fatalf("status body: %v (%s)", err, body)
	}

	resp, body = get("/v1/jobs/" + st.ID + "/artifacts/extracted.gds")
	if resp.StatusCode != http.StatusOK || string(body) != "GDS:B4" {
		t.Fatalf("artifact: %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("artifact content type %q", ct)
	}
	if resp, _ := get("/v1/jobs/" + st.ID + "/artifacts/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing artifact: %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}

	// Terminal event stream replays to completion and closes.
	resp, body = get("/v1/jobs/" + st.ID + "/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var kinds []string
	for _, ln := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("event line %q: %v", ln, err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"queued", "running", "done"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds %v, want %v", kinds, want)
		}
	}

	// Resubmission now hits the in-memory job artifacts? No cache store
	// is configured, so it runs again — but health must count both.
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h health
	if err := json.Unmarshal(body, &h); err != nil || !h.OK || h.Jobs != 1 {
		t.Fatalf("healthz body: %v (%s)", err, body)
	}
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if _, err := obs.ValidateProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if resp, _ := get("/debug/vars"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars: %d, want 404", resp.StatusCode)
	}

	// List surfaces the one job.
	resp, body = get("/v1/jobs")
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil || len(list) != 1 {
		t.Fatalf("list: %v (%s)", err, body)
	}
}

// TestServeEndToEndCacheAndByteIdentity runs the real pipeline through
// the server: two identical submissions execute the pipeline exactly
// once (asserted via the fleet metrics), both serve byte-identical
// artifacts, and the extracted GDS equals a direct core.RunCtx export.
func TestServeEndToEndCacheAndByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Jobs: 1, Cache: store}, nil) // real runner
	req := Request{Chip: "B4", Profile: "fast"}

	first, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		st, _ := s.Status(first.ID)
		if st.State == StateDone {
			break
		}
		if st.State.terminal() {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline job timed out")
		}
		time.Sleep(50 * time.Millisecond)
	}

	second, err := s.Submit(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("resubmit: state %s cache_hit %v, want cached done", second.State, second.CacheHit)
	}
	if got := counter(s, "serve.runs"); got != 1 {
		t.Fatalf("pipeline executed %d times for identical submissions, want exactly 1", got)
	}
	for _, name := range []string{ArtifactReport, ArtifactGDS} {
		a, err1 := s.Artifact(first.ID, name)
		b, err2 := s.Artifact(second.ID, name)
		if err1 != nil || err2 != nil {
			t.Fatalf("artifact %s: %v / %v", name, err1, err2)
		}
		if !bytes.Equal(a, b) || len(a) == 0 {
			t.Fatalf("artifact %s not byte-identical across submissions", name)
		}
	}

	// The served GDS equals a direct pipeline export at the same
	// options (no server, no cache) — the cache serves real results.
	_, o, _, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCtx(context.Background(), chips.ByID("B4"), o)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	direct, err := ExtractedGDSBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := s.Artifact(first.ID, ArtifactGDS)
	if !bytes.Equal(direct, served) {
		t.Fatalf("served GDS (%d bytes) differs from direct export (%d bytes)", len(served), len(direct))
	}
}

// waitDone polls a real-pipeline job until it is done.
func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		st, _ := s.Status(id)
		if st.State == StateDone {
			return
		}
		if st.State.terminal() {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s timed out", id)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeEnginePanicFailsJob panics a denoise worker of the streaming
// engine once: the job fails with the panic as its error, and the
// server, still up, runs the next job to completion.
func TestServeEnginePanicFailsJob(t *testing.T) {
	defer failpoint.Disable()
	if err := failpoint.Enable("core.denoise=panic(poisoned slice):times=1", 1); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Jobs: 1, QueueDepth: 4}, nil) // real pipeline
	st, err := s.Submit(Request{Chip: "B4", Profile: "fast", FaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for !st.State.terminal() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		st, _ = s.Status(st.ID)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked: poisoned slice") {
		t.Fatalf("poisoned job: state %s, error %q; want failed with the panic", st.State, st.Error)
	}
	next, err := s.Submit(Request{Chip: "B4", Profile: "fast", FaultSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, next.ID)
}

// stageCalls counts the spans named stage in a job's trace.
func stageCalls(ob *obs.Observer, stage string) int {
	stats, _ := ob.Trace.Summary()
	for _, st := range stats {
		if st.Name == stage {
			return st.Calls
		}
	}
	return 0
}

// TestServeViewsOneReconstruction pins the views job contract: the
// planar views ride along with the extraction, so a views job images
// the stack once and denoises each slice once, and its PGMs are what
// PlanarViewsCtx renders from a freshly acquired stack. A views job that
// follows a plain job with the same fingerprint resumes from the plain
// job's extraction checkpoint and images nothing. The report is the
// same bytes whichever way it was computed: fresh, resumed by the views
// job, or served from the cache to a later plain job.
func TestServeViewsOneReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}
	// newServer returns a server running the real pipeline on a fresh
	// cache, recording each job's observer.
	newServer := func() (*Server, func() []*obs.Observer) {
		store, err := ckpt.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var seen []*obs.Observer
		var s *Server
		s = newTestServer(t, Config{Jobs: 1, Cache: store},
			func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
				mu.Lock()
				seen = append(seen, ob)
				mu.Unlock()
				return s.runPipeline(ctx, req, inner, ob)
			})
		return s, func() []*obs.Observer {
			mu.Lock()
			defer mu.Unlock()
			return append([]*obs.Observer(nil), seen...)
		}
	}
	plain := Request{Chip: "B4", Profile: "fast"}
	views := plain
	views.Views = true

	s, observers := newServer()
	st, err := s.Submit(views)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	ob := observers()[0]
	report, err := s.Artifact(st.ID, ArtifactReport)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if n := stageCalls(ob, core.StageAcquire); n != 1 {
		t.Errorf("views job acquired %d times, want 1", n)
	}
	if n := ob.Snapshot().Counters["denoise.slices"]; n != int64(rep.SliceCount) {
		t.Errorf("views job denoised %d slices, want one reconstruction of %d", n, rep.SliceCount)
	}
	want := planarPGMs(t, views)
	if len(want) == 0 {
		t.Fatal("no planar views rendered")
	}
	for name, pgm := range want {
		got, err := s.Artifact(st.ID, name)
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		if !bytes.Equal(got, pgm) {
			t.Errorf("artifact %s differs from the PlanarViews rendering", name)
		}
	}

	s, observers = newServer()
	first, err := s.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)
	second, err := s.Submit(views)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, second.ID)
	obs := observers()
	if len(obs) != 2 {
		t.Fatalf("%d pipeline runs, want 2", len(obs))
	}
	ob = obs[1]
	if n := ob.Snapshot().Counters["ckpt.resumed."+core.CkptNetex]; n != 1 {
		t.Errorf("views job after a plain job: ckpt.resumed.netex = %d, want 1", n)
	}
	if n := stageCalls(ob, core.StageAcquire); n != 0 {
		t.Errorf("views job after a plain job acquired %d times, want 0", n)
	}
	if n := ob.Snapshot().Counters["denoise.slices"]; n != 0 {
		t.Errorf("views job after a plain job denoised %d slices, want 0", n)
	}
	for name, pgm := range want {
		got, err := s.Artifact(second.ID, name)
		if err != nil {
			t.Fatalf("resumed artifact %s: %v", name, err)
		}
		if !bytes.Equal(got, pgm) {
			t.Errorf("resumed artifact %s differs from the PlanarViews rendering", name)
		}
	}

	third, err := s.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, third.ID)
	firstReport, err := s.Artifact(first.ID, ArtifactReport)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{second.ID, third.ID} {
		got, err := s.Artifact(id, ArtifactReport)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, firstReport) {
			t.Errorf("job %s report differs from the first plain job's:\n%s\nwant:\n%s", id, got, firstReport)
		}
	}
}

// planarPGMs renders req's planar views independently of the run:
// acquire the region, reconstruct its views with PlanarViewsCtx, normalize
// each and encode it as PGM.
func planarPGMs(t *testing.T, req Request) map[string][]byte {
	t.Helper()
	chip, o, _, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	region, err := chipgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := chipgen.Voxelize(region.Cell, region.Cell.Bounds(), o.VoxelNM)
	if err != nil {
		t.Fatal(err)
	}
	acq, err := sem.AcquireStackCtx(context.Background(), vol, o.SEM)
	if err != nil {
		t.Fatal(err)
	}
	views, err := core.PlanarViewsCtx(context.Background(), acq, o)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(views))
	for name, view := range views {
		view.Normalize()
		var buf bytes.Buffer
		if err := img.WritePGM(&buf, view); err != nil {
			t.Fatal(err)
		}
		out["views/"+name+".pgm"] = buf.Bytes()
	}
	return out
}
