package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/supervise"
)

// appendBytes appends raw bytes to a file — the test stand-in for a
// crash tearing the journal mid-append.
func appendBytes(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// abandon simulates a SIGKILL for a server built around a runner that
// is still blocked: no Close runs, so no terminal state records reach
// the journal — exactly the on-disk state a crash leaves. The returned
// cleanup unblocks the runner and stops the goroutines at test end
// (after the successor server has compacted the journal, so the dead
// server's stray appends land on an orphaned inode, not the live file).
func abandon(t *testing.T, s *Server, release chan struct{}) {
	t.Helper()
	t.Cleanup(func() {
		close(release)
		s.stop()
		s.queue.close()
	})
}

// TestRecoverRequeuesAcknowledgedJobs: a crash with one job running and
// one queued loses neither — the successor re-enqueues both under their
// original IDs (running first) and runs them to completion.
func TestRecoverRequeuesAcknowledgedJobs(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	release := make(chan struct{})
	obA := &obs.Observer{Metrics: obs.NewMetrics()}
	a, err := NewServer(Config{
		Jobs: 1, JournalPath: journal, Obs: obA,
		runner: func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	abandon(t, a, release)

	st1, err := a.Submit(reqN(1))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := a.Submit(reqN(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, st1.ID, StateRunning)

	// The accept records were durable before Submit returned: the
	// journal already names both jobs, with job 1 running.
	recs, _, torn, err := ReadJournal(journal)
	if err != nil || torn != 0 {
		t.Fatalf("mid-flight journal: torn %d, err %v", torn, err)
	}
	replayed := replayJournal(recs)
	if len(replayed) != 2 {
		t.Fatalf("journal holds %d jobs, want 2", len(replayed))
	}
	if replayed[st1.ID].state != StateRunning || replayed[st2.ID].state != StateQueued {
		t.Fatalf("journal states: %s=%s %s=%s", st1.ID, replayed[st1.ID].state, st2.ID, replayed[st2.ID].state)
	}

	// "Crash" (abandon a) and recover into a fresh server.
	var runs atomic.Int64
	b := newTestServer(t, Config{Jobs: 1, JournalPath: journal},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			return stubArtifacts(req.Chip), nil
		})
	if b.Recovered() != 2 {
		t.Fatalf("recovered %d jobs, want 2", b.Recovered())
	}
	waitState(t, b, st1.ID, StateDone)
	waitState(t, b, st2.ID, StateDone)
	if got := runs.Load(); got != 2 {
		t.Fatalf("recovered jobs ran %d times, want 2", got)
	}
	// IDs keep advancing from where the dead server stopped.
	st3, err := b.Submit(reqN(3))
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != newJobID(3) {
		t.Fatalf("post-recovery ID %s, want %s", st3.ID, newJobID(3))
	}
}

// TestRecoverCompletesFromCache: a crash that lands between the
// artifact publish and the done record must not rerun the job — the
// successor finds the artifacts in the cache and completes it there.
// This is the exactly-once half the publish-before-journal ordering
// buys.
func TestRecoverCompletesFromCache(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.journal")
	store, err := ckpt.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	req := reqN(1)
	key, err := req.identity()
	if err != nil {
		t.Fatal(err)
	}
	j, err := CreateJournal(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []JournalRecord{
		acceptRec("job-000001", req),
		stateRec("job-000001", StateRunning, ""),
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The dead server's publish completed; only the done record is
	// missing.
	if err := cacheStore(store, key, stubArtifacts("prev")); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{JournalPath: journal, Cache: store},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			t.Error("recovered job reran despite published artifacts")
			return nil, errors.New("must not run")
		})
	st, ok := s.Status("job-000001")
	if !ok {
		t.Fatal("recovered job vanished")
	}
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("state %s cacheHit %v, want done from cache", st.State, st.CacheHit)
	}
	data, err := s.Artifact("job-000001", ArtifactGDS)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "GDS:prev" {
		t.Fatalf("artifact %q, want the previously published bytes", data)
	}
	if s.Recovered() != 0 {
		t.Fatalf("recovered count %d, want 0 (nothing was requeued)", s.Recovered())
	}
}

// TestRecoverPreservesTerminalJobs: done/failed/canceled jobs replay
// into the job table as history, with their causes, and never rerun.
func TestRecoverPreservesTerminalJobs(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := CreateJournal(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []JournalRecord{
		acceptRec("job-000001", reqN(1)),
		stateRec("job-000001", StateDone, ""),
		acceptRec("job-000002", reqN(2)),
		stateRec("job-000002", StateFailed, "boom"),
		acceptRec("job-000003", reqN(3)),
		stateRec("job-000003", StateCanceled, "canceled by client"),
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{JournalPath: journal},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			t.Error("terminal job reran")
			return nil, errors.New("must not run")
		})
	want := map[string]struct {
		state State
		cause string
	}{
		"job-000001": {StateDone, ""},
		"job-000002": {StateFailed, "boom"},
		"job-000003": {StateCanceled, "canceled by client"},
	}
	for id, w := range want {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != w.state || st.Error != w.cause {
			t.Fatalf("job %s: %s %q, want %s %q", id, st.State, st.Error, w.state, w.cause)
		}
	}
	if n := len(s.List()); n != 3 {
		t.Fatalf("job table holds %d jobs, want 3", n)
	}
}

// TestShutdownMidAttemptJournalsInterrupted: a supervised unit still
// running when the server shuts down is journaled as interrupted — not
// failed — and the successor resubmits it exactly once.
func TestShutdownMidAttemptJournalsInterrupted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	running := make(chan struct{}, 1)
	a := newTestServer(t, Config{Jobs: 1, JournalPath: journal},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			sts, err := supervise.Run(ctx, []string{req.Chip}, func(ctx context.Context, i int) error {
				select {
				case running <- struct{}{}:
				default:
				}
				<-ctx.Done()
				return ctx.Err()
			}, supervise.Options{Workers: 1})
			if sts[0].Interrupted {
				return nil, fmt.Errorf("unit interrupted: %w", err)
			}
			return nil, err
		})
	st, err := a.Submit(reqN(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("the unit never started")
	}
	// The unit is blocked inside its one attempt; shut the server down
	// underneath it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayJournal(recs)[st.ID]; got == nil || got.state != StateInterrupted {
		t.Fatalf("journal state %+v, want interrupted", got)
	}

	var runs atomic.Int64
	b := newTestServer(t, Config{Jobs: 1, JournalPath: journal},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			return stubArtifacts(req.Chip), nil
		})
	waitState(t, b, st.ID, StateDone)
	if got := runs.Load(); got != 1 {
		t.Fatalf("resubmitted job ran %d times, want exactly 1", got)
	}
}

// TestJournalSurvivesDoubleRestart: two successive recoveries (with a
// torn tail injected between them) keep exactly-once terminal states —
// a job that reached done stays done, never reruns, and the torn bytes
// disappear at the first compaction.
func TestJournalSurvivesDoubleRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	var runs atomic.Int64
	runner := func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
		runs.Add(1)
		return stubArtifacts(req.Chip), nil
	}
	a := newTestServer(t, Config{JournalPath: journal}, runner)
	st, err := a.Submit(reqN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, st.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Torn tail: a crash mid-append after the clean shutdown.
	if err := appendBytes(journal, []byte("HFDJ torn mid-append")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s := newTestServer(t, Config{JournalPath: journal}, runner)
		got, ok := s.Status(st.ID)
		if !ok || got.State != StateDone {
			t.Fatalf("restart %d: job %s state %+v, want done", i, st.ID, got)
		}
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		recs, _, torn, err := ReadJournal(journal)
		if err != nil {
			t.Fatal(err)
		}
		if torn != 0 {
			t.Fatalf("restart %d: %d torn bytes survived compaction", i, torn)
		}
		if len(recs) != 2 {
			t.Fatalf("restart %d: %d records, want accept+done", i, len(recs))
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times across restarts, want 1", got)
	}
}

// TestRecoverDerivesIdentityFromRequest: a job journaled by an older
// build, whose accept record carries that build's fingerprint, recovers
// under the identity this build derives from its request. An identical
// fresh submission attaches to it as a follower, so the work runs once.
// A journaled request this build rejects fails its job at recovery.
func TestRecoverDerivesIdentityFromRequest(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.journal")
	store, err := ckpt.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	req := reqN(1)
	writeLegacyJournal(t, journal,
		legacyAccept("job-000001", `{"chip":"B4","profile":"fast","voxel_nm":12}`, "0123456789abcdef"),
		legacyAccept("job-000002", `{"chip":"B4","profile":"fast","units":1000}`, "fedcba9876543210"))
	release := make(chan struct{})
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1, JournalPath: journal, Cache: store},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubArtifacts(req.Chip), nil
		})
	rejected := waitState(t, s, "job-000002", StateFailed)
	if !strings.Contains(rejected.Error, "above the cap") {
		t.Errorf("rejected job error %q, want the units cap", rejected.Error)
	}
	fresh, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.DedupedOf != "job-000001" {
		t.Errorf("fresh submission deduped_of %q, want the recovered job-000001", fresh.DedupedOf)
	}
	close(release)
	recovered := waitState(t, s, "job-000001", StateDone)
	waitState(t, s, fresh.ID, StateDone)
	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline ran %d times for identical work, want 1", got)
	}
	key, err := req.identity()
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Fingerprint != key.Fingerprint {
		t.Errorf("recovered job fingerprint %q, want this build's %q", recovered.Fingerprint, key.Fingerprint)
	}
}

// TestRecoverLegacyBreakerJournal replays a journal written by a build
// with the circuit breaker and brownout: "breaker" records around the
// jobs and an accept whose request carries no_brownout. Recovery runs
// the live job as its request reads without the field, the terminal one
// keeps its state, and compaction leaves only accept and state records.
func TestRecoverLegacyBreakerJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	breaker := func(state string) string {
		return `{"op":"breaker","id":"","time":"2026-01-02T03:04:05Z","breaker":"B4|fast","breaker_state":"` + state + `","fails":2}`
	}
	writeLegacyJournal(t, journal,
		breaker("open"),
		`{"op":"accept","id":"job-000001","time":"2026-01-02T03:04:05Z","req":{"chip":"B4","profile":"fast","voxel_nm":12,"no_brownout":true}}`,
		`{"op":"accept","id":"job-000002","time":"2026-01-02T03:04:05Z","req":{"chip":"B4","no_brownout":true}}`,
		`{"op":"state","id":"job-000002","time":"2026-01-02T03:04:06Z","state":"failed","cause":"boom"}`,
		breaker("half_open"))
	var runs atomic.Int64
	s := newTestServer(t, Config{Jobs: 1, JournalPath: journal},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			runs.Add(1)
			if req != reqN(1) {
				t.Errorf("recovered request %+v, want %+v", req, reqN(1))
			}
			return stubArtifacts(req.Chip), nil
		})
	waitState(t, s, "job-000001", StateDone)
	if st, _ := s.Status("job-000002"); st.State != StateFailed || st.Error != "boom" {
		t.Errorf("terminal job: state %s error %q, want failed boom", st.State, st.Error)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
	recs, _, torn, err := ReadJournal(journal)
	if err != nil || torn != 0 {
		t.Fatalf("ReadJournal: %v (torn %d)", err, torn)
	}
	for _, rec := range recs {
		if rec.Op != opAccept && rec.Op != opState {
			t.Errorf("compacted journal kept a %q record", rec.Op)
		}
	}
}
