package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSanitizeTenant: the bounded label that feeds metric keys,
// admission buckets and queue lanes.
func TestSanitizeTenant(t *testing.T) {
	long := strings.Repeat("a", 40)
	cases := []struct{ in, want string }{
		{"", ""},
		{"alice", "alice"},
		{"team.ml-infra_2", "team.ml-infra_2"},
		{long, long[:32]},
		{"we!rd", "other"},
		{"sp ace", "other"},
		{"new\nline", "other"},
		{"serve.tenant.x.jobs", "serve.tenant.x.jobs"}, // valid charset, passes as-is
		{"émoji", "other"},
	}
	for _, c := range cases {
		if got := sanitizeTenant(c.in); got != c.want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseTenantWeights: weights parse as whole positive integers and
// are keyed by names the fair queue can actually match — a name that
// sanitizeTenant would rewrite is rejected, not silently ignored.
func TestParseTenantWeights(t *testing.T) {
	max := strings.Repeat("a", 32)
	cases := []struct {
		spec string
		want map[string]int // nil with ok=false means rejected
		ok   bool
	}{
		{"", nil, true},
		{"alice=3,bob=1", map[string]int{"alice": 3, "bob": 1}, true},
		{" alice=3 , team.ml-infra_2=2", map[string]int{"alice": 3, "team.ml-infra_2": 2}, true},
		{max + "=2", map[string]int{max: 2}, true},
		{"alice=3x", nil, false},
		{"alice=3.5", nil, false},
		{"alice= 3", nil, false},
		{"alice=0", nil, false},
		{"alice=-2", nil, false},
		{"alice=", nil, false},
		{"alice", nil, false},
		{"=3", nil, false},
		{"alice =3", nil, false},
		{"we!rd=3", nil, false},
		{"émoji=3", nil, false},
		{max + "b=2", nil, false},
		{"alice=3,", nil, false},
		{"alice=3,alice=2", nil, false},
	}
	for _, c := range cases {
		got, err := ParseTenantWeights(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("ParseTenantWeights(%q) err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseTenantWeights(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for name, w := range c.want {
			if got[name] != w {
				t.Errorf("ParseTenantWeights(%q)[%q] = %d, want %d", c.spec, name, got[name], w)
			}
		}
	}
}

// TestTenantMetricUsesSanitizedLabel (satellite: queue.go's raw
// req.Tenant metric key): a hostile label must not mint a metric
// series.
func TestTenantMetricUsesSanitizedLabel(t *testing.T) {
	s := newTestServer(t, Config{}, func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
		return stubArtifacts(req.Chip), nil
	})
	req := reqN(1)
	req.Tenant = "ev!l\nlabel"
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	if got := counter(s, "serve.tenant.other.jobs"); got != 1 {
		t.Fatalf("serve.tenant.other.jobs = %d, want 1", got)
	}
	snap := s.FleetSnapshot()
	for name := range snap.Counters {
		if strings.Contains(name, "ev!l") || strings.Contains(name, "\n") {
			t.Fatalf("raw tenant label leaked into metric key %q", name)
		}
	}
}

// TestTenantRateLimit: the token bucket bounces the tenant over its
// rate with a 429-mapped error and admits it again once tokens accrue;
// other tenants are untouched.
func TestTenantRateLimit(t *testing.T) {
	s := newTestServer(t, Config{TenantRate: 1, TenantBurst: 2},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			return stubArtifacts(req.Chip), nil
		})
	now := time.Unix(1000, 0)
	s.adm.now = func() time.Time { return now }

	sub := func(tenant string, n int) error {
		req := reqN(n)
		req.Tenant = tenant
		_, err := s.Submit(req)
		return err
	}
	if err := sub("alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := sub("alice", 2); err != nil {
		t.Fatal(err)
	}
	err := sub("alice", 3)
	var limit *TenantLimitError
	if !errors.As(err, &limit) || limit.Reason != "rate" || limit.Tenant != "alice" {
		t.Fatalf("third submit: %v, want alice rate limit", err)
	}
	if limit.RetryAfterSeconds() < 1 {
		t.Fatalf("RetryAfterSeconds %d, want >= 1", limit.RetryAfterSeconds())
	}
	// A different tenant has its own bucket.
	if err := sub("bob", 4); err != nil {
		t.Fatalf("bob blocked by alice's bucket: %v", err)
	}
	// One second accrues one token.
	now = now.Add(time.Second)
	if err := sub("alice", 5); err != nil {
		t.Fatalf("alice still blocked after refill: %v", err)
	}
	if got := counter(s, "serve.tenant_rejected"); got != 1 {
		t.Fatalf("serve.tenant_rejected = %d, want 1", got)
	}
}

// TestTenantInflightQuota: the live-job cap counts queued, running and
// deduped jobs, and frees as they finish.
func TestTenantInflightQuota(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Jobs: 1, TenantInflight: 2},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			select {
			case <-release:
				return stubArtifacts(req.Chip), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	sub := func(tenant string, n int) (JobStatus, error) {
		req := reqN(n)
		req.Tenant = tenant
		return s.Submit(req)
	}
	st1, err := sub("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub("alice", 2); err != nil {
		t.Fatal(err)
	}
	_, err = sub("alice", 3)
	var limit *TenantLimitError
	if !errors.As(err, &limit) || limit.Reason != "inflight" {
		t.Fatalf("third live job: %v, want inflight limit", err)
	}
	// A follower occupies a slot too: duplicate of the running job.
	if _, err := sub("alice", 1); !errors.As(err, &limit) {
		t.Fatalf("follower bypassed the quota: %v", err)
	}
	// Other tenants are unaffected.
	if _, err := sub("bob", 4); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	close(release)
	waitState(t, s, st1.ID, StateDone)
	// Slots free as jobs finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sub("alice", 5); err == nil {
			break
		} else if !errors.As(err, &limit) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never freed after jobs finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFairQueueWeightedOrder: deficit-weighted round-robin across
// lanes — weight-2 alice is served two jobs per visit to bob's one, and
// a drained lane leaves the rotation.
func TestFairQueueWeightedOrder(t *testing.T) {
	q := newFairQueue(16, func(lane string) int {
		if lane == "alice" {
			return 2
		}
		return 1
	})
	mk := func(tenant, id string) *job {
		return &job{id: id, tenantKey: tenant, update: make(chan struct{})}
	}
	for _, j := range []*job{
		mk("alice", "a1"), mk("alice", "a2"), mk("alice", "a3"),
		mk("bob", "b1"), mk("bob", "b2"), mk("bob", "b3"),
	} {
		if err := q.push(j, false); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a1", "a2", "b1", "a3", "b2", "b3"}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue closed early", i)
		}
		if j.id != w {
			t.Fatalf("pop %d: got %s, want %s", i, j.id, w)
		}
	}
	if q.pending() != 0 {
		t.Fatalf("pending %d after draining", q.pending())
	}
}

// TestFairQueueNoStarvation: a tenant with one job is served within one
// round even when another tenant has the lane depth to itself.
func TestFairQueueNoStarvation(t *testing.T) {
	q := newFairQueue(64, nil)
	for i := 0; i < 20; i++ {
		if err := q.push(&job{id: "flood", tenantKey: "flood"}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(&job{id: "single", tenantKey: "quiet"}, false); err != nil {
		t.Fatal(err)
	}
	// Round-robin: the quiet tenant's job arrives second, not 21st.
	seen := 0
	for {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		seen++
		if j.id == "single" {
			break
		}
		if seen > 2 {
			t.Fatalf("quiet tenant served at position %d", seen)
		}
	}
}

// TestHTTP429AndEventsValidation: the HTTP mappings — tenant limits are
// 429 with Retry-After (distinct from the queue's 503), and a negative
// events cursor is a 400.
func TestHTTP429AndEventsValidation(t *testing.T) {
	s := newTestServer(t, Config{TenantRate: 1, TenantBurst: 1},
		func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
			return stubArtifacts(req.Chip), nil
		})
	now := time.Unix(1000, 0)
	s.adm.now = func() time.Time { return now }
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(`{"chip":"B4","profile":"fast","tenant":"alice"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp = post(`{"chip":"B4","profile":"fast","tenant":"alice","voxel_nm":12}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Negative events cursor is rejected, valid one accepted.
	var id string
	for _, st := range s.List() {
		id = st.ID
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + id + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("from=0: %d, want 200", resp.StatusCode)
	}
}
