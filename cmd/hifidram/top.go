package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// runTop polls a serve instance's /metrics exposition and renders a
// refreshing fleet table: queue occupancy, job throughput, and a
// per-tenant row with in-flight count, completions, latency quantiles
// and SLO burn rate. It is a read-only client of the public endpoint —
// everything it shows, any Prometheus scraper sees too.
func runTop(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print a single frame and exit (no screen control; for scripts and smoke tests)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hifidram top [flags] ADDR (e.g. localhost:8080)")
	}
	if *interval < 100*time.Millisecond {
		return fmt.Errorf("bad -interval %v (want >= 100ms)", *interval)
	}
	url := metricsURL(fs.Arg(0))
	client := &http.Client{Timeout: 10 * time.Second}

	var prev *obs.PromScrape
	var prevAt time.Time
	for {
		scr, err := scrapeProm(ctx, client, url)
		if err != nil {
			return err
		}
		now := time.Now()
		frame := renderFleet(url, now, scr, prev, now.Sub(prevAt))
		if *once {
			fmt.Print(frame)
			return nil
		}
		// Home the cursor and clear to the end of the screen: repainting
		// in place instead of clearing first avoids a visible flicker.
		fmt.Print("\x1b[H" + frame + "\x1b[0J")
		prev, prevAt = scr, now
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-time.After(*interval):
		}
	}
}

// metricsURL normalizes an ADDR or URL argument to a /metrics URL.
func metricsURL(addr string) string {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	if !strings.HasSuffix(addr, "/metrics") {
		addr = strings.TrimSuffix(addr, "/") + "/metrics"
	}
	return addr
}

// scrapeProm fetches and parses one exposition document.
func scrapeProm(ctx context.Context, client *http.Client, url string) (*obs.PromScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	scr, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return scr, nil
}

// renderFleet formats one frame of the fleet view.
func renderFleet(url string, now time.Time, scr, prev *obs.PromScrape, dt time.Duration) string {
	var b strings.Builder
	val := func(name string, want ...obs.Label) float64 {
		v, _ := scr.Value(name, want...)
		return v
	}
	fmt.Fprintf(&b, "hifidram top — %s — %s\n", url, now.Format(time.RFC3339))
	ready := "not ready"
	if val("serve_ready") == 1 {
		ready = "ready"
	}
	fmt.Fprintf(&b, "%s | jobs %d (%d queued, %d running, queue depth %d)\n",
		ready, int64(val("serve_jobs")), int64(val("serve_queued")),
		int64(val("serve_running")), int64(val("serve_queue_depth")))
	fmt.Fprintf(&b, "submitted %d | done %d | failed %d | canceled %d | cache hits %d | dedup served %d\n",
		int64(val("serve_jobs_submitted_total")), int64(val("serve_jobs_done_total")),
		int64(val("serve_jobs_failed_total")), int64(val("serve_jobs_canceled_total")),
		int64(val("serve_cache_hits_total")), int64(val("serve_dedup_served_total")))
	if prev != nil && dt > 0 {
		rate := func(name string) float64 {
			was, _ := prev.Value(name)
			return (val(name) - was) / dt.Seconds()
		}
		fmt.Fprintf(&b, "throughput: %.2f submitted/s, %.2f done/s over the last %s\n",
			rate("serve_jobs_submitted_total"), rate("serve_jobs_done_total"), dt.Round(time.Millisecond))
		fmt.Fprintf(&b, "overload: %s | %.2f shed/s (totals: shed %d, deadline-shed %d, failure hits %d)\n",
			overloadName(int(val("serve_shed_level"))), rate("serve_shed_total"),
			int64(val("serve_shed_total")), int64(val("serve_deadline_shed_total")),
			int64(val("serve_failure_hits_total")))
	} else {
		fmt.Fprintf(&b, "overload: %s | shed %d | deadline-shed %d | failure hits %d\n",
			overloadName(int(val("serve_shed_level"))), int64(val("serve_shed_total")),
			int64(val("serve_deadline_shed_total")), int64(val("serve_failure_hits_total")))
	}
	if free, ok := scr.Value("serve_disk_free_bytes"); ok {
		pressure := "ok"
		if val("serve_disk_pressure") == 1 {
			pressure = "HARD"
		}
		fmt.Fprintf(&b, "disk: %.1f MiB free (pressure %s)\n", free/(1<<20), pressure)
	}
	if pool := renderImgPool(scr); pool != "" {
		fmt.Fprintf(&b, "img pool: %s\n", pool)
	}
	b.WriteString("\n")

	// One row per tenant, discovered from every per-tenant series so a
	// tenant with in-flight jobs but no completions still shows up.
	tenants := map[string]bool{}
	for _, name := range []string{
		"serve_inflight", "serve_job_latency_seconds_count", "serve_slo_error_budget_remaining",
	} {
		for _, s := range scr.Series(name) {
			tenants[s.Label("tenant")] = true
		}
	}
	if len(tenants) == 0 {
		b.WriteString("no per-tenant series yet (run jobs)\n")
		return b.String()
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TENANT\tINFLIGHT\tDONE\tP50\tP99\tBURN 5m\tBUDGET")
	for _, t := range names {
		label := obs.Label{Key: "tenant", Value: t}
		display := t
		if display == "" {
			display = "(none)"
		}
		count, haveHist := scr.Value("serve_job_latency_seconds_count", label)
		p50 := topQuantile(scr, 0.50, label, haveHist)
		p99 := topQuantile(scr, 0.99, label, haveHist)
		burn := topGauge(scr, "serve_slo_burn_rate", label, obs.Label{Key: "window", Value: "5m"})
		budget := topGauge(scr, "serve_slo_error_budget_remaining", label)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
			display, int64(val("serve_inflight", label)), int64(count), p50, p99, burn, budget)
	}
	tw.Flush()
	return b.String()
}

// overloadName renders the serve_shed_level gauge.
func overloadName(level int) string {
	if level == 1 {
		return "SHEDDING"
	}
	return "healthy"
}

// renderImgPool summarizes the shared image-buffer pool gauges
// (img_pool_*) that streaming reconstructions publish at completion.
// Each finished job re-reports the shared pool, so the series with the
// largest hit count is the freshest snapshot; hits and misses only grow
// over the pool's lifetime. Returns "" before any streaming job has
// finished.
func renderImgPool(scr *obs.PromScrape) string {
	maxOf := func(name string) (float64, bool) {
		var best float64
		found := false
		for _, s := range scr.Series(name) {
			if !found || s.Value > best {
				best, found = s.Value, true
			}
		}
		return best, found
	}
	hits, ok := maxOf("img_pool_hits")
	if !ok {
		return ""
	}
	misses, _ := maxOf("img_pool_misses")
	peak, _ := maxOf("img_pool_peak_live")
	reuse := 0.0
	if hits+misses > 0 {
		reuse = 100 * hits / (hits + misses)
	}
	return fmt.Sprintf("%d hits / %d misses (%.0f%% reuse), peak %d live buffers",
		int64(hits), int64(misses), reuse, int64(peak))
}

// topQuantile formats a latency quantile of the per-tenant job-latency
// histogram, or "-" when the histogram family is absent (no job has
// finished yet).
func topQuantile(scr *obs.PromScrape, q float64, tenant obs.Label, have bool) string {
	if !have {
		return "-"
	}
	v, ok := scr.HistQuantile("serve_job_latency_seconds", q, tenant)
	if !ok {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Millisecond).String()
}

// topGauge formats an optional gauge ("-" when the series is absent).
func topGauge(scr *obs.PromScrape, name string, want ...obs.Label) string {
	v, ok := scr.Value(name, want...)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// runMetricsCheck validates an exposition document the way a strict
// scraper would: every sample TYPE-declared, histograms cumulative and
// complete. -require asserts specific series are present, so the CI
// smoke fails when an instrumented code path stops reporting. The
// argument is a file path, a URL, or "-" for stdin.
func runMetricsCheck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("metricscheck", flag.ExitOnError)
	require := fs.String("require", "", "comma-separated sample or histogram-family names that must be present (e.g. \"serve_ready,serve_job_latency_seconds\")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hifidram metricscheck [-require NAMES] FILE|URL|-")
	}
	src := fs.Arg(0)
	var r io.Reader
	switch {
	case src == "-":
		r = os.Stdin
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
		if err != nil {
			return err
		}
		resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %s", src, resp.Status)
		}
		r = resp.Body
	default:
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	scr, err := obs.ValidateProm(r)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	present := map[string]bool{}
	for _, s := range scr.Samples {
		present[s.Name] = true
	}
	var missing []string
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			// A histogram family counts as present through any of its
			// child series.
			if present[name] || present[name+"_bucket"] || present[name+"_count"] {
				continue
			}
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: valid exposition but missing required series: %s",
			src, strings.Join(missing, ", "))
	}
	fmt.Printf("%s: ok — %d families, %d samples\n", src, len(scr.Families), len(scr.Samples))
	return nil
}
