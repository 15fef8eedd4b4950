package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot builds a fully deterministic snapshot exercising every
// family kind the renderer emits: plain and labeled counters, gauges,
// and plain and labeled histograms.
func goldenSnapshot() *Snapshot {
	m := NewMetrics()
	m.Add("serve.jobs_submitted", 42)
	m.Add(Series("serve.jobs_done", Label{"tenant", "alice"}), 40)
	m.Add(Series("serve.jobs_done", Label{"tenant", "bob"}), 2)
	m.Set("serve.queue_depth", 3)
	m.Set(Series("serve.inflight", Label{"tenant", "alice"}), 1)
	m.Observe("serve.journal_fsync", 2*time.Millisecond)
	m.Observe("serve.journal_fsync", 4*time.Millisecond)
	for i := 1; i <= 10; i++ {
		m.Observe("serve.queue_wait", time.Duration(i)*time.Millisecond)
	}
	m.Observe(Series("serve.run_duration", Label{"tenant", "alice"}, Label{"profile", "deep"}), 500*time.Millisecond)
	m.Observe(Series("serve.run_duration", Label{"tenant", "alice"}, Label{"profile", "deep"}), 1500*time.Millisecond)
	m.Observe(Series("serve.run_duration", Label{"tenant", "bob"}), 100000*time.Second) // overflow bucket
	return m.Snapshot()
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Rendering the same snapshot again is byte-identical — map
	// iteration order must not leak into the output.
	var buf2 bytes.Buffer
	if err := WriteProm(&buf2, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same snapshot differ")
	}
}

func TestWritePromRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	scr, err := ValidateProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("our own exposition fails validation: %v", err)
	}
	if v, ok := scr.Value("serve_jobs_submitted_total"); !ok || v != 42 {
		t.Errorf("serve_jobs_submitted_total = %g, %v", v, ok)
	}
	if v, ok := scr.Value("serve_jobs_done_total", Label{"tenant", "alice"}); !ok || v != 40 {
		t.Errorf("labeled counter = %g, %v", v, ok)
	}
	if v, ok := scr.Value("serve_queue_depth"); !ok || v != 3 {
		t.Errorf("gauge = %g, %v", v, ok)
	}
	if v, ok := scr.Value("serve_journal_fsync_seconds_count"); !ok || v != 2 {
		t.Errorf("duration count = %g, %v", v, ok)
	}
	if v, ok := scr.Value("serve_journal_fsync_seconds_sum"); !ok || !approxEq(v, 0.006, 1e-12) {
		t.Errorf("duration sum = %g, %v", v, ok)
	}
	for name, fam := range scr.Families {
		if fam.Type == "summary" {
			t.Errorf("family %s is a summary; durations render as histograms", name)
		}
	}
	if v, ok := scr.Value("serve_queue_wait_seconds_count"); !ok || v != 10 {
		t.Errorf("histogram count = %g, %v", v, ok)
	}
	// The parsed quantile must agree with the histogram's own Quantile.
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	pq, ok := scr.HistQuantile("serve_queue_wait_seconds", 0.5)
	if !ok {
		t.Fatal("no quantile from scrape")
	}
	if hq := h.Quantile(0.5); !approxEq(pq, hq, 1e-9) {
		t.Errorf("scrape p50 %g != histogram p50 %g", pq, hq)
	}
	// Labeled histogram children carry their labels.
	if v, ok := scr.Value("serve_run_duration_seconds_count",
		Label{"tenant", "alice"}, Label{"profile", "deep"}); !ok || v != 2 {
		t.Errorf("labeled histogram count = %g, %v", v, ok)
	}
	if fam, ok := scr.Families["serve_run_duration_seconds"]; !ok || fam.Type != "histogram" {
		t.Errorf("family = %+v", fam)
	}
}

func TestWritePromBucketOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Within each labeled sub-series, buckets must appear in ascending
	// le order with +Inf last; the validator checks cumulative counts,
	// here we check the textual order directly.
	lines := strings.Split(buf.String(), "\n")
	var sawInf bool
	var lastKey string
	for _, line := range lines {
		if !strings.HasPrefix(line, "serve_queue_wait_seconds_bucket") {
			if lastKey != "" && !sawInf {
				t.Fatal("bucket block ended without +Inf")
			}
			lastKey = ""
			continue
		}
		lastKey = "serve_queue_wait_seconds_bucket"
		if strings.Contains(line, `le="+Inf"`) {
			sawInf = true
		} else if sawInf {
			t.Fatalf("finite bucket after +Inf: %s", line)
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket emitted")
	}
}

func TestWritePromNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil snapshot rendered %q", buf.String())
	}
	if err := WriteProm(&buf, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty snapshot rendered %q", buf.String())
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	bad := []string{
		"# TYPE foo\nfoo 1\n",                      // short TYPE
		"# TYPE foo widget\nfoo 1\n",               // unknown type
		"# TYPE foo counter\n# TYPE foo counter\n", // duplicate TYPE
		"foo 1\n# TYPE foo counter\n",              // TYPE after samples
		"foo{bar} 1\n",                             // label without value
		"foo{bar=\"x} 1\n",                         // unterminated quote
		"foo{bar=\"x\"} \n",                        // missing value
		"foo{bar=\"x\"} one\n",                     // non-numeric value
		"foo 1 2 3\n",                              // trailing garbage
		"{x=\"y\"} 1\n",                            // missing name
	}
	for _, doc := range bad {
		if _, err := ParseProm(strings.NewReader(doc)); err == nil {
			t.Errorf("ParseProm accepted malformed %q", doc)
		}
	}
}

func TestValidatePromRejectsBrokenHistogram(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"undeclared sample", "foo 1\n"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n"},
		{"non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n"},
	}
	for _, c := range cases {
		if _, err := ValidateProm(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: ValidateProm accepted %q", c.name, c.doc)
		}
	}
	// Each series appears once, and buckets belong to histograms only.
	for _, c := range []struct{ name, doc string }{
		{"repeated series", "# TYPE up gauge\nup 1\nup 1\n"},
		{"repeated labeled series", "# TYPE c_total counter\nc_total{a=\"x\",b=\"y\"} 1\nc_total{b=\"y\",a=\"x\"} 2\n"},
		{"bucket in a summary", "# TYPE h summary\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
		{"le label on a gauge", "# TYPE g gauge\ng{le=\"1\"} 1\n"},
		{"le label on a histogram child", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count{le=\"+Inf\"} 1\n"},
	} {
		if _, err := ValidateProm(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: ValidateProm accepted %q", c.name, c.doc)
		}
	}
	// A well-formed third-party exposition passes.
	good := "# TYPE up gauge\nup 1\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if _, err := ValidateProm(strings.NewReader(good)); err != nil {
		t.Errorf("ValidateProm rejected well-formed doc: %v", err)
	}
}

// TestValidatePromRejectsMixedFamilies feeds the validator two /metrics
// documents captured from a serve build that recorded serve.queue_wait
// both as a duration summary and as a tenant-labeled histogram under the
// one family serve_queue_wait_seconds. After a labeled-tenant job the
// family was typed summary yet carried _bucket series; after an
// anonymous-tenant job its unlabeled _count and _sum appeared twice.
// Both parse, and both must fail validation.
func TestValidatePromRejectsMixedFamilies(t *testing.T) {
	const want = "histogram bucket in summary family serve_queue_wait_seconds"
	for _, file := range []string{"summary_with_buckets.txt", "repeated_series.txt"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseProm(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: fixture must parse: %v", file, err)
		}
		_, err = ValidateProm(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ValidateProm error = %v, want %q", file, err, want)
		}
	}
	// With the summary TYPE line fixed up, the anonymous-tenant document
	// still repeats the unlabeled serve_queue_wait_seconds_count series.
	data, err := os.ReadFile(filepath.Join("testdata", "repeated_series.txt"))
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(string(data), "# TYPE serve_queue_wait_seconds summary", "# TYPE serve_queue_wait_seconds histogram", 1)
	_, err = ValidateProm(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "serve_queue_wait_seconds_count{} appears twice") {
		t.Errorf("retyped anonymous-tenant document: error = %v, want a repeated series", err)
	}
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
