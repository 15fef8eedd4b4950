package obs

import (
	"sync"
	"time"
)

// Metrics is a concurrency-safe registry of counters, gauges and
// duration histograms. Counters hold deterministic quantities — values
// that depend only on the input and the options, never on scheduling —
// so equal runs produce equal counter snapshots for any worker count;
// durations are where all timing (and therefore all nondeterminism)
// lives.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// Add adds delta to the named counter.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Set sets the named gauge (last write wins).
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe folds d, in seconds, into the named histogram, creating it on
// first use. Histograms use the package's fixed exponential bucket
// scheme (see Histogram), so every histogram with the same name is
// mergeable across jobs and processes.
func (m *Metrics) Observe(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.Observe(d.Seconds())
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the registry — the structured
// Telemetry record the pipeline attaches to its Result.
type Snapshot struct {
	// Counters are the deterministic work counts (MI evaluations, gate
	// detections by kind, denoise iterations, ...): equal inputs and
	// options produce equal Counters for any worker count.
	Counters map[string]int64 `json:"counters"`
	// Gauges are last-write-wins point values.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms hold all timing (worker busy/idle, queue wait,
	// latencies) as fixed-bucket distributions in seconds. They are
	// scheduling-dependent and excluded from the determinism contract,
	// but their merge is exact, so fleet-level quantiles are well
	// defined.
	Histograms map[string]*Histogram `json:"histograms,omitempty"`
}

// Snapshot returns a copy of the current registry state.
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Gauges:     make(map[string]float64, len(m.gauges)),
		Histograms: make(map[string]*Histogram, len(m.hists)),
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
	}
	for k, h := range m.hists {
		s.Histograms[k] = h.Clone()
	}
	return s
}

// Merge folds a snapshot into the registry: counters add, gauges take
// the snapshot's value (last write wins), histograms add bucket by
// bucket. The serve layer uses it to roll every job's private metric
// registry up into the server-wide one after the job finishes, so
// /metrics shows fleet totals while each job keeps an isolated,
// deterministic snapshot of its own.
func (m *Metrics) Merge(s *Snapshot) {
	if m == nil || s == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range s.Counters {
		m.counters[k] += v
	}
	for k, v := range s.Gauges {
		m.gauges[k] = v
	}
	for k, v := range s.Histograms {
		if v == nil || v.Count == 0 {
			continue
		}
		h := m.hists[k]
		if h == nil {
			h = &Histogram{}
			m.hists[k] = h
		}
		h.Merge(v)
	}
}
