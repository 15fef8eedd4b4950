package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0}, // negatives clamp to bucket 0 via Observe; index of 0 is 0
		{HistBase / 2, 0},
		{HistBase, 0},           // exact first bound stays in bucket 0
		{HistBase * 1.0001, 1},  // just past the bound moves up
		{HistBase * 2, 1},       // exact second bound
		{HistBase * 2.0001, 2},  // just past it
		{HistBase * 4, 2},       // bound i lands in bucket i
		{1.0, bucketIndex(1.0)}, // self-consistent
		{1e9, HistBuckets},      // far past the last bound: overflow
		{math.MaxFloat64, HistBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every exact bound must land in its own bucket, and any value just
	// above it in the next — the float-error clamp must hold across the
	// whole range.
	for i, bound := range histBounds {
		if got := bucketIndex(bound); got != i {
			t.Errorf("bucketIndex(bound[%d]=%g) = %d, want %d", i, bound, got, i)
		}
		next := i + 1
		if got := bucketIndex(bound * 1.000001); got != next {
			t.Errorf("bucketIndex(just above bound[%d]) = %d, want %d", i, got, next)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
	// 100 observations spread evenly through bucket 3, which spans
	// (bound[2], bound[3]] = (400µs, 800µs].
	lo, hi := histBounds[2], histBounds[3]
	for i := 1; i <= 100; i++ {
		h.Observe(lo + (hi-lo)*float64(i)/100)
	}
	if h.Count != 100 {
		t.Fatalf("count = %d, want 100", h.Count)
	}
	if h.Counts[3] != 100 {
		t.Fatalf("bucket 3 = %d, want all 100 observations", h.Counts[3])
	}
	// All mass in one bucket: the quantile interpolates linearly across
	// it, so p50 sits at the bucket midpoint.
	mid := lo + (hi-lo)*0.5
	if q := h.Quantile(0.5); math.Abs(q-mid) > 1e-12 {
		t.Errorf("p50 = %g, want bucket midpoint %g", q, mid)
	}
	if q := h.Quantile(1); math.Abs(q-hi) > 1e-12 {
		t.Errorf("p100 = %g, want bucket upper bound %g", q, hi)
	}
	// Overflow-only histogram reports the last finite bound.
	var o Histogram
	o.Observe(1e9)
	if q := o.Quantile(0.99); q != histBounds[HistBuckets-1] {
		t.Errorf("overflow quantile = %g, want last bound %g", q, histBounds[HistBuckets-1])
	}
	// Negative observations clamp: sum stays consistent with buckets.
	var n Histogram
	n.Observe(-5)
	if n.Sum != 0 || n.Counts[0] != 1 {
		t.Errorf("negative observe: sum=%g counts[0]=%d, want 0 and 1", n.Sum, n.Counts[0])
	}
}

// TestHistogramObserveDuration pins the registry's one duration entry
// point: Metrics.Observe records into the fixed-bucket histogram, in
// seconds.
func TestHistogramObserveDuration(t *testing.T) {
	m := NewMetrics()
	m.Observe("d", 50*time.Microsecond) // <= base: bucket 0
	m.Observe("d", time.Second)
	h := m.Snapshot().Histograms["d"]
	if h == nil || h.Count != 2 || h.Counts[0] != 1 || h.Counts[bucketIndex(1)] != 1 {
		t.Fatalf("histogram = %+v", h)
	}
	if math.Abs(h.Sum-1.00005) > 1e-9 {
		t.Errorf("sum = %g, want 1.00005", h.Sum)
	}
}

// TestHistogramMergeDeterministic shards one observation stream across
// several worker counts and merges the per-worker histograms; every
// sharding must produce the exact same histogram as observing the
// stream directly. This is the property the serve layer's fleet
// roll-up relies on.
func TestHistogramMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	values := make([]float64, 10000)
	for i := range values {
		// Log-uniform across the full bucket range plus overflow.
		values[i] = HistBase * math.Pow(2, rng.Float64()*30)
	}
	var direct Histogram
	for _, v := range values {
		direct.Observe(v)
	}
	for _, workers := range []int{1, 2, 3, 7, 16} {
		shards := make([]Histogram, workers)
		for i, v := range values {
			shards[i%workers].Observe(v)
		}
		var merged Histogram
		// Merge in reverse order too — order must not matter.
		for i := workers - 1; i >= 0; i-- {
			merged.Merge(&shards[i])
		}
		if merged.Counts != direct.Counts || merged.Count != direct.Count {
			t.Errorf("workers=%d: merged counts differ from direct observation", workers)
		}
		if math.Abs(merged.Sum-direct.Sum) > 1e-6*direct.Sum {
			t.Errorf("workers=%d: merged sum %g != direct %g", workers, merged.Sum, direct.Sum)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != direct.Quantile(q) {
				t.Errorf("workers=%d: q%g differs: %g != %g",
					workers, q, merged.Quantile(q), direct.Quantile(q))
			}
		}
	}
	// Merging nil is inert; Clone copies.
	direct.Merge(nil)
	c := direct.Clone()
	c.Observe(1)
	if c.Count == direct.Count {
		t.Error("Clone must not share state")
	}
}

func TestMetricsObserveHist(t *testing.T) {
	m := NewMetrics()
	m.Observe("lat", time.Millisecond)
	m.Observe("lat", 2*time.Millisecond)
	snap := m.Snapshot()
	h := snap.Histograms["lat"]
	if h == nil || h.Count != 2 {
		t.Fatalf("snapshot histogram = %+v", h)
	}
	// Snapshot must deep-copy: mutating the registry afterwards must not
	// change the snapshot.
	m.Observe("lat", time.Millisecond)
	if h.Count != 2 {
		t.Error("snapshot histogram aliases the registry")
	}
	// Merge folds histograms; nil and empty ones are skipped.
	m2 := NewMetrics()
	m2.Merge(snap)
	m2.Merge(&Snapshot{Histograms: map[string]*Histogram{"lat": nil, "empty": {}}})
	got := m2.Snapshot().Histograms
	if got["lat"].Count != 2 {
		t.Errorf("merged count = %d, want 2", got["lat"].Count)
	}
	if _, ok := got["empty"]; ok {
		t.Error("empty histogram should not be created by Merge")
	}
	// nil registry is inert.
	var nilM *Metrics
	nilM.Observe("x", time.Second)
}

// TestMetricsMergeRace exercises Merge against concurrent Add/Observe/Set
// under -race: the registry mutex must cover every path, including
// lazily-created histograms.
func TestMetricsMergeRace(t *testing.T) {
	dst := NewMetrics()
	src := NewMetrics()
	src.Add("c", 1)
	src.Observe("d", time.Millisecond)
	src.Observe("h", 10*time.Millisecond)
	snap := src.Snapshot()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dst.Add("c", 1)
				dst.Observe("d", time.Duration(i)*time.Microsecond)
				dst.Observe("h", time.Duration(i)*10*time.Microsecond)
				dst.Set("g", float64(i))
				_ = dst.Snapshot()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		dst.Merge(snap)
	}
	close(stop)
	wg.Wait()
	final := dst.Snapshot()
	if final.Counters["c"] < 200 {
		t.Errorf("merged counter = %d, want >= 200", final.Counters["c"])
	}
	if final.Histograms["h"].Count < 200 {
		t.Errorf("merged histogram count = %d, want >= 200", final.Histograms["h"].Count)
	}
}
