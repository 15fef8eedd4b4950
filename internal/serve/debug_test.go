package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDebugMux pins the -pprof diagnostics surface: /metrics renders the
// registry it was given as a valid exposition, pprof answers, and there
// is no second exposition format on /debug/vars.
func TestDebugMux(t *testing.T) {
	m := obs.NewMetrics()
	m.Add("denoise.slices", 3)
	m.Observe("par.worker_busy", 2*time.Millisecond)
	ts := httptest.NewServer(DebugMux(m))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentTypeProm)
	}
	scr, err := obs.ValidateProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics failed validation: %v", err)
	}
	if v, ok := scr.Value("denoise_slices_total"); !ok || v != 3 {
		t.Errorf("denoise_slices_total = %g, %v, want 3", v, ok)
	}
	if fam := scr.Families["par_worker_busy_seconds"]; fam.Type != "histogram" {
		t.Errorf("par_worker_busy_seconds family = %+v, want a histogram", fam)
	}
	if v, ok := scr.Value("par_worker_busy_seconds_count"); !ok || v != 1 {
		t.Errorf("par_worker_busy_seconds_count = %g, %v, want 1", v, ok)
	}

	for path, want := range map[string]int{
		"/debug/pprof/": http.StatusOK,
		"/debug/vars":   http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
