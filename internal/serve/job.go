package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// State is a job's lifecycle position. Transitions are strictly
// forward: queued -> running -> {done, failed, canceled}, with two
// shortcuts that never reach a worker — a cache hit (a stored result or
// a stored failure) completes a job at submit time, and a queued job may
// be canceled before it runs.
type State string

const (
	// StateQueued: accepted and waiting — either in the FIFO queue or
	// attached to an in-flight identical job (deduped_of is set).
	StateQueued State = "queued"
	// StateRunning: a worker is executing the pipeline for this job.
	StateRunning State = "running"
	// StateDone: artifacts are available.
	StateDone State = "done"
	// StateFailed: the computation failed; Error carries the cause.
	StateFailed State = "failed"
	// StateCanceled: the client canceled the job (or the server shut
	// down) before it completed.
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's progress log, streamed by the events
// endpoint in order. Seq is dense per job, so clients resume a dropped
// stream by discarding already-seen sequence numbers.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	Msg  string    `json:"msg,omitempty"`
}

// job is the server-side record of one submission. Every mutable field
// is guarded by the owning Server's mutex; the public view is the
// JobStatus snapshot statusLocked builds.
type job struct {
	id  string
	req Request
	// key is the job's identity (Request.identity), derived from req
	// at submit and again at recovery: the unit names the pipeline
	// input (chip ID, "/die"-suffixed for die runs), the fingerprint is
	// the core.FingerprintOptions hash the run's netex checkpoint is
	// keyed by, and the stage is the result entry. Two jobs with equal
	// keys produce identical artifact sets, so only one may compute at
	// a time.
	key ckpt.Key

	state     State
	err       error
	cacheHit  bool
	dedupedOf string
	created   time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration
	artifacts map[string][]byte

	// pushedAt is when the job entered its fair-queue lane; the overload
	// controller reads the oldest one as the head-of-line age.
	pushedAt time.Time
	// deadline is the client's absolute completion deadline (zero when
	// none was requested): created + DeadlineMS, journaled implicitly via
	// the request's relative field.
	deadline time.Time

	// tenantKey is the sanitized tenant label — the admission bucket,
	// fair-queue lane and metric key this job charges against.
	tenantKey string
	// corr is the correlation ID: the request ID of the HTTP submission
	// that created the job ("" for direct Submit calls). It is
	// journaled with the accept record, restored on recovery, tagged
	// onto the job's trace, and surfaced in JobStatus — one ID joins
	// the access log line, the lifecycle log lines, the journal records
	// and the trace spans of a single piece of work.
	corr string
	// admitted is set while the job holds a tenant in-flight slot, so
	// the single completion path releases it exactly once.
	admitted bool
	// recovered marks a job re-enqueued from the journal after a crash
	// or restart.
	recovered bool

	// followers are identical submissions attached to this job while it
	// is queued or running; they complete when it does.
	followers []*job
	cancel    func()

	events []Event
	// update is the change broadcast: closed and replaced on every
	// event append, so streamers wait on it without polling.
	update chan struct{}

	// metrics and trace are the job's private observability sinks; the
	// status endpoint surfaces their snapshot (queue wait, cache hit,
	// stage timings) and the server folds the metrics into its fleet
	// registry when the job finishes.
	metrics *obs.Metrics
	trace   *obs.Trace
}

// StageTiming is one stage row of a job's trace summary.
type StageTiming struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID          string           `json:"id"`
	State       State            `json:"state"`
	Chip        string           `json:"chip"`
	Die         bool             `json:"die,omitempty"`
	Views       bool             `json:"views,omitempty"`
	Profile     string           `json:"profile,omitempty"`
	Tenant      string           `json:"tenant,omitempty"`
	Fingerprint string           `json:"fingerprint"`
	Correlation string           `json:"correlation,omitempty"`
	DeadlineMS  int64            `json:"deadline_ms,omitempty"`
	CacheHit    bool             `json:"cache_hit"`
	DedupedOf   string           `json:"deduped_of,omitempty"`
	Error       string           `json:"error,omitempty"`
	Created     time.Time        `json:"created"`
	QueueWaitMS float64          `json:"queue_wait_ms"`
	RunMS       float64          `json:"run_ms"`
	Artifacts   []string         `json:"artifacts,omitempty"`
	Stages      []StageTiming    `json:"stages,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// eventLocked appends a progress event and wakes every streamer.
// Caller holds the server mutex.
func (j *job) eventLocked(kind, msg string) {
	j.events = append(j.events, Event{
		Seq: len(j.events), Time: time.Now(), Kind: kind, Msg: msg,
	})
	close(j.update)
	j.update = make(chan struct{})
}

// finishLocked moves the job to a terminal state exactly once. Caller
// holds the server mutex.
func (j *job) finishLocked(state State, err error) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.err = err
	j.finished = time.Now()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	j.eventLocked(string(state), msg)
}

// statusLocked snapshots the job for the API. Caller holds the server
// mutex.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state,
		Chip: j.req.Chip, Die: j.req.Die, Views: j.req.Views,
		Profile: j.req.Profile, Tenant: j.req.Tenant,
		Fingerprint: j.key.Fingerprint,
		Correlation: j.corr,
		DeadlineMS:  j.req.DeadlineMS,
		CacheHit:    j.cacheHit,
		DedupedOf:   j.dedupedOf,
		Created:     j.created,
		QueueWaitMS: float64(j.queueWait) / float64(time.Millisecond),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	for name := range j.artifacts {
		st.Artifacts = append(st.Artifacts, name)
	}
	sort.Strings(st.Artifacts)
	// The trace is only read back once the job is terminal: Summary
	// walks the span tree, and the running pipeline appends to it
	// without the server's lock (Metrics, by contrast, has its own).
	if j.state.terminal() {
		if stats, _ := j.trace.Summary(); len(stats) > 0 {
			for _, s := range stats {
				st.Stages = append(st.Stages, StageTiming{
					Name: s.Name, Calls: s.Calls,
					TotalMS: float64(s.Total) / float64(time.Millisecond),
				})
			}
		}
	}
	if snap := j.metrics.Snapshot(); snap != nil && len(snap.Counters) > 0 {
		st.Counters = snap.Counters
	}
	return st
}

// newJobID renders the dense per-server job number.
func newJobID(n int) string {
	return fmt.Sprintf("job-%06d", n)
}

// sortJobIDs orders job IDs by number, which is submission order.
// newJobID pads to six digits, so a longer ID is a larger number: from
// job-1000000 on, a plain string sort would put the newest jobs first.
func sortJobIDs(ids []string) {
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
	})
}
