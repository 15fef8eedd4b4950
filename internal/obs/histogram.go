package obs

import "math"

// The histogram bucket scheme is fixed at compile time so that every
// histogram in the process — and in every process — shares the same
// bucket boundaries. That is what makes histograms mergeable the way
// counters are: Merge is element-wise addition of bucket counts, which
// is associative and commutative, so folding N per-job histograms into
// a fleet histogram yields the same result for any merge order, any
// worker count, any sharding of the observations. A dynamic or
// adaptive scheme (t-digest, HDR auto-ranging) would trade that
// determinism for resolution; the serve layer needs the determinism.
//
// Buckets are exponential: bucket i spans (bound[i-1], bound[i]] with
// bound[i] = HistBase * HistGrowth^i, in seconds. HistBase 100µs and
// growth 2 give 28 finite buckets from 100µs to ~3.7h — wide enough
// for a queue wait under load at one end and a die-level extraction
// campaign at the other, at a fixed 2× relative error. Values at or
// below HistBase land in bucket 0; values beyond the last bound land
// in the overflow (+Inf) bucket.
const (
	// HistBase is the upper bound of the first bucket, in seconds.
	HistBase = 100e-6
	// HistGrowth is the exponential growth factor between bounds.
	HistGrowth = 2.0
	// HistBuckets is the number of finite buckets; the +Inf overflow
	// bucket is stored separately as index HistBuckets.
	HistBuckets = 28
)

// histBounds holds the precomputed finite upper bounds, in seconds.
var histBounds = func() [HistBuckets]float64 {
	var b [HistBuckets]float64
	v := HistBase
	for i := range b {
		b[i] = v
		v *= HistGrowth
	}
	return b
}()

// Histogram is a fixed-bucket exponential histogram of nonnegative
// values (canonically: durations in seconds). The zero value is ready
// to use. A Histogram is NOT internally locked: standalone users
// synchronize it themselves, and the Metrics registry guards its
// histograms with the registry mutex.
type Histogram struct {
	// Counts[i] is the number of observations in bucket i; index
	// HistBuckets is the +Inf overflow bucket.
	Counts [HistBuckets + 1]uint64 `json:"counts"`
	// Sum is the running sum of observed values; Count the total
	// number of observations.
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
}

// bucketIndex returns the bucket for value v (seconds).
func bucketIndex(v float64) int {
	if v <= HistBase {
		return 0
	}
	if v > histBounds[HistBuckets-1] {
		return HistBuckets
	}
	// ceil(log_growth(v/base)) without a loop; clamp against float
	// error at exact bounds by checking the neighbor.
	i := int(math.Ceil(math.Log(v/HistBase) / math.Log(HistGrowth)))
	if i >= HistBuckets {
		// The log overshot an exact last bound by float error.
		return HistBuckets - 1
	}
	if i > 0 && v <= histBounds[i-1] {
		i--
	}
	if v > histBounds[i] {
		i++
	}
	return i
}

// Observe folds one value into the histogram. Negative values clamp to
// zero (they land in bucket 0 and contribute 0 to the sum would lie —
// the clamp keeps Sum consistent with what the buckets say).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.Counts[bucketIndex(v)]++
	h.Sum += v
	h.Count++
}

// Merge adds another histogram's counts into this one. Because every
// histogram shares the same fixed bounds, merge is exact: the merged
// histogram is identical to one that observed both value streams
// directly, in any order.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
	h.Count += o.Count
}

// Clone returns a copy.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}

// Quantile returns the value (seconds) at quantile q in [0, 1],
// linearly interpolated inside the holding bucket (bucket 0
// interpolates from zero; the overflow bucket reports the last finite
// bound — the scheme cannot resolve beyond it). Returns 0 for an
// empty histogram. The result is deterministic: it depends only on
// the bucket counts, never on observation order.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := q * float64(h.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= HistBuckets {
			return histBounds[HistBuckets-1]
		}
		lo := 0.0
		if i > 0 {
			lo = histBounds[i-1]
		}
		hi := histBounds[i]
		// Position of the target inside this bucket, in (0, 1].
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return histBounds[HistBuckets-1]
}
