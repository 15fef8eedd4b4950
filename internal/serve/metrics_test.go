package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func okRunner(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
	return stubArtifacts(req.Chip), nil
}

// TestReadyz exercises the New/Start split: before Start the server is
// not ready (Submit refuses, /readyz is 503); after Start both flip.
func TestReadyz(t *testing.T) {
	s := New(Config{Jobs: 1, Obs: &obs.Observer{Metrics: obs.NewMetrics()}, runner: okRunner})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	if s.Ready() {
		t.Fatal("server ready before Start")
	}
	if _, err := s.Submit(reqN(1)); err != ErrNotReady {
		t.Fatalf("Submit before Start: err = %v, want ErrNotReady", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before Start = %d, want 503", resp.StatusCode)
	}
	// Submissions over HTTP get a retryable 503 too.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"chip":"B4"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit before Start = %d, want 503", resp.StatusCode)
	}

	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	if !s.Ready() {
		t.Fatal("server not ready after Start")
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body readiness
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body.Ready {
		t.Fatalf("/readyz after Start = %d %+v, want 200 ready", resp.StatusCode, body)
	}
	// Start is idempotent.
	if err := s.Start(); err != nil {
		t.Fatalf("second Start: %v", err)
	}
}

// TestMetricsEndpoint drives jobs through a server and validates the /metrics exposition: parseable, histogram invariants
// hold, and the per-tenant latency series are present.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{
		Jobs: 1,
		SLOs: map[string]SLOObjective{"default": {Availability: 0.999, Latency: 30 * time.Second}},
	}, okRunner)
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	req := reqN(1)
	req.Tenant = "alice"
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentTypeProm)
	}
	scr, err := obs.ValidateProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics failed validation: %v", err)
	}
	if v, ok := scr.Value("serve_jobs_submitted_total"); !ok || v != 1 {
		t.Errorf("serve_jobs_submitted_total = %g, %v", v, ok)
	}
	if v, ok := scr.Value("serve_ready"); !ok || v != 1 {
		t.Errorf("serve_ready = %g, %v", v, ok)
	}
	for _, name := range []string{
		"serve_queue_wait_seconds_count",
		"serve_run_duration_seconds_count",
		"serve_job_latency_seconds_count",
	} {
		if v, ok := scr.Value(name, obs.Label{Key: "tenant", Value: "alice"}); !ok || v < 1 {
			t.Errorf("%s{tenant=alice} = %g, %v (want >= 1)", name, v, ok)
		}
	}
	if v, ok := scr.Value("serve_run_duration_seconds_count",
		obs.Label{Key: "profile", Value: "fast"}); !ok || v < 1 {
		t.Errorf("run duration missing profile label: %g, %v", v, ok)
	}
	// SLO gauges: one good job, budget untouched, burn zero.
	if v, ok := scr.Value("serve_slo_error_budget_remaining",
		obs.Label{Key: "tenant", Value: "alice"}); !ok || v != 1 {
		t.Errorf("error budget = %g, %v, want 1", v, ok)
	}
	if v, ok := scr.Value("serve_slo_burn_rate",
		obs.Label{Key: "tenant", Value: "alice"}, obs.Label{Key: "window", Value: "5m"}); !ok || v != 0 {
		t.Errorf("burn rate = %g, %v, want 0", v, ok)
	}
}

// TestMetricsDocumentValidPerTenant scrapes /metrics after one job from
// an anonymous and from a labeled tenant. Every document must validate:
// each family typed once, no bucket outside a histogram, no repeated
// series. The job's queue wait is counted exactly once, in the tenant's
// histogram series.
func TestMetricsDocumentValidPerTenant(t *testing.T) {
	for _, tenant := range []string{"", "alice"} {
		t.Run(fmt.Sprintf("tenant=%q", tenant), func(t *testing.T) {
			s := newTestServer(t, Config{Jobs: 1}, okRunner)
			ts := httptest.NewServer(NewMux(s))
			defer ts.Close()
			req := reqN(1)
			req.Tenant = tenant
			st, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, st.ID, StateDone)
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			scr, err := obs.ValidateProm(resp.Body)
			if err != nil {
				t.Fatalf("/metrics failed validation: %v", err)
			}
			if fam := scr.Families["serve_queue_wait_seconds"]; fam.Type != "histogram" {
				t.Errorf("serve_queue_wait_seconds type = %q, want histogram", fam.Type)
			}
			counts := scr.Series("serve_queue_wait_seconds_count")
			if len(counts) != 1 || counts[0].Label("tenant") != tenant || counts[0].Value != 1 {
				t.Errorf("serve_queue_wait_seconds_count series = %+v, want one series for tenant %q with value 1", counts, tenant)
			}
		})
	}
}

// TestSLOTracking pins the tracker math: mixed outcomes produce the
// expected burn rate and error budget.
func TestSLOTracking(t *testing.T) {
	objectives := map[string]SLOObjective{
		"default": {Availability: 0.9, Latency: time.Minute}, // 10% budget
	}
	tr := newSLOTracker(objectives)
	base := time.Unix(1_700_000_000, 0)
	tr.now = func() time.Time { return base }
	// 8 good, 2 bad: 20% error rate against a 10% budget.
	for i := 0; i < 8; i++ {
		tr.record("alice", true, time.Second)
	}
	tr.record("alice", false, time.Second)  // failed
	tr.record("alice", true, 2*time.Minute) // done but over latency objective
	gauges := make(map[string]float64)
	tr.gauges(gauges)
	burn := gauges[obs.Series("serve.slo_burn_rate",
		obs.Label{Key: "tenant", Value: "alice"}, obs.Label{Key: "window", Value: "5m"})]
	if !approxF(burn, 2.0, 1e-9) {
		t.Errorf("burn rate = %g, want 2.0", burn)
	}
	budget := gauges[obs.Series("serve.slo_error_budget_remaining",
		obs.Label{Key: "tenant", Value: "alice"})]
	if !approxF(budget, -1.0, 1e-9) {
		t.Errorf("budget remaining = %g, want -1 (blown)", budget)
	}
	// Outcomes age out of the 5m window but stay in the 1h one.
	tr.now = func() time.Time { return base.Add(10 * time.Minute) }
	gauges = make(map[string]float64)
	tr.gauges(gauges)
	if _, ok := gauges[obs.Series("serve.slo_burn_rate",
		obs.Label{Key: "tenant", Value: "alice"}, obs.Label{Key: "window", Value: "5m"})]; ok {
		t.Error("5m burn rate still present after window aged out")
	}
	if v, ok := gauges[obs.Series("serve.slo_burn_rate",
		obs.Label{Key: "tenant", Value: "alice"}, obs.Label{Key: "window", Value: "1h"})]; !ok || !approxF(v, 2.0, 1e-9) {
		t.Errorf("1h burn rate = %g, %v, want 2.0", v, ok)
	}
	// A tenant with no objective (and no default) records nothing.
	tr2 := newSLOTracker(map[string]SLOObjective{"bob": {Availability: 0.99}})
	tr2.record("carol", true, 0)
	g2 := make(map[string]float64)
	tr2.gauges(g2)
	if len(g2) != 0 {
		t.Errorf("untracked tenant produced gauges: %v", g2)
	}
}

func TestParseSLOs(t *testing.T) {
	got, err := ParseSLOs("default=99.9/30s;alice=99.99/10s;bob=99")
	if err != nil {
		t.Fatal(err)
	}
	if !approxF(got["default"].Availability, 0.999, 1e-12) || got["default"].Latency != 30*time.Second {
		t.Errorf("default = %+v", got["default"])
	}
	if !approxF(got["alice"].Availability, 0.9999, 1e-12) || got["alice"].Latency != 10*time.Second {
		t.Errorf("alice = %+v", got["alice"])
	}
	if got["bob"].Latency != 0 {
		t.Errorf("bob latency = %v, want 0 (availability-only)", got["bob"].Latency)
	}
	for _, bad := range []string{"", "alice", "alice=", "alice=0/10s", "alice=100/10s",
		"alice=99/x", "alice=99;alice=98", "=99"} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
}

// TestCorrelationFlow submits over HTTP with an X-Request-Id and checks
// the ID is echoed, lands in JobStatus, and survives journal recovery.
func TestCorrelationFlow(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.hfdj")
	block := make(chan struct{})
	s := newTestServer(t, Config{Jobs: 1, JournalPath: journal},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			<-block
			return nil, ctx.Err()
		})
	ts := httptest.NewServer(NewMux(s))

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"chip":"B4","profile":"fast"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "corr-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "corr-abc-123" {
		t.Errorf("echoed request ID = %q", got)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Correlation != "corr-abc-123" {
		t.Errorf("JobStatus correlation = %q", st.Correlation)
	}
	ts.Close()
	close(block)

	// Stop the first server (job is running -> journaled interrupted),
	// then recover: the correlation must ride the journal.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{Jobs: 1, JournalPath: journal}, okRunner)
	st2, ok := s2.Status(st.ID)
	if !ok {
		t.Fatalf("job %s not recovered", st.ID)
	}
	if st2.Correlation != "corr-abc-123" {
		t.Errorf("recovered correlation = %q, want corr-abc-123", st2.Correlation)
	}
	waitState(t, s2, st.ID, StateDone)
}

// TestRequestIDMinted checks a server-minted ID appears when the client
// sends none, and that a hostile header is sanitized.
func TestRequestIDMinted(t *testing.T) {
	s := newTestServer(t, Config{Jobs: 1}, okRunner)
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(id, "req-") {
		t.Errorf("minted request ID = %q, want req-... prefix", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "evil id\"with{garbage}")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if strings.ContainsAny(got, " \"{}") {
		t.Errorf("unsanitized request ID echoed: %q", got)
	}
}

// TestEventsKeepalive holds a stream open on an idle running job and
// expects seq-less keepalive frames between real events; resume
// cursors must ignore them.
func TestEventsKeepalive(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Jobs: 1, eventKeepalive: 20 * time.Millisecond},
		func(ctx context.Context, req Request, _ int, _ *obs.Observer) (map[string][]byte, error) {
			<-release
			return stubArtifacts(req.Chip), nil
		})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	st, err := s.Submit(reqN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	keepalives, maxSeq := 0, -1
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sc.Scan() {
		var frame map[string]any
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ka, _ := frame["keepalive"].(bool); ka {
			if _, hasSeq := frame["seq"]; hasSeq {
				t.Fatalf("keepalive frame carries a seq: %q", sc.Text())
			}
			keepalives++
			if keepalives >= 2 {
				close(release) // let the job finish; stream then ends
			}
			continue
		}
		seq, ok := frame["seq"].(float64)
		if !ok {
			t.Fatalf("event frame without seq: %q", sc.Text())
		}
		if int(seq) <= maxSeq {
			t.Fatalf("event seq went backwards: %d after %d", int(seq), maxSeq)
		}
		maxSeq = int(seq)
	}
	if keepalives < 2 {
		t.Fatalf("saw %d keepalives, want >= 2", keepalives)
	}
	waitState(t, s, st.ID, StateDone)
	// Resume from the cursor after the last real event: replay works as
	// before (keepalives never entered the log).
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?from=" + itoa(maxSeq+1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev Event
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatalf("bad resumed line %q: %v", sc2.Text(), err)
		}
		if ev.Seq <= maxSeq {
			t.Fatalf("resume replayed seq %d, cursor was %d", ev.Seq, maxSeq)
		}
	}
}

func itoa(n int) string {
	return strconv.Itoa(n)
}

func approxF(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestMetricsSmokeWritesParseable keeps a guard on the exposition the
// CI smoke curls: render to a file the way the script sees it, parse it
// back strictly.
func TestMetricsSmokeWritesParseable(t *testing.T) {
	s := newTestServer(t, Config{Jobs: 1}, okRunner)
	st, err := s.Submit(reqN(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	path := filepath.Join(t.TempDir(), "metrics.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteProm(f, s.MetricsSnapshot()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	if _, err := obs.ValidateProm(data); err != nil {
		t.Fatalf("smoke exposition invalid: %v", err)
	}
}
