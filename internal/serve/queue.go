package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config configures a Server.
type Config struct {
	// Workers is the total CPU budget shared by all concurrent jobs
	// (0 = all cores). The server splits it with par.SplitBudget: with
	// Jobs concurrent jobs each gets Workers/Jobs inner workers, so the
	// pool never oversubscribes the machine.
	Workers int
	// Jobs is the number of jobs executing concurrently (0 = 2).
	Jobs int
	// QueueDepth bounds the total pending set across all tenant lanes
	// (0 = 16). A submission that finds the queue full is rejected
	// (ErrQueueFull → HTTP 503) rather than buffered without bound.
	QueueDepth int
	// Cache is the shared content-addressed store. It plays two roles:
	// pipeline stage checkpoints during a run, and the finished
	// artifact cache keyed by the same options fingerprint — identical
	// submissions dedupe to one computation across server restarts.
	// Nil disables both.
	Cache *ckpt.Store
	// CacheBytes, when positive, is the byte budget for Cache: after
	// each artifact publish (and once at startup) the server sweeps the
	// store LRU-first down to the budget, never evicting entries pinned
	// by live jobs. Zero disables the sweep.
	CacheBytes int64
	// JournalPath, when set, enables the write-ahead job journal: every
	// accepted job is fsynced to this file before the submission is
	// acknowledged, and on startup the server recovers the journal —
	// requeues acknowledged-but-unfinished jobs and restores terminal
	// ones to the job table. Empty disables durability (jobs die with
	// the process, as before).
	JournalPath string
	// TenantRate, when positive, is the per-tenant token-bucket refill
	// in submissions per second; TenantBurst the bucket size (0 = one
	// second of refill). A tenant over its rate gets HTTP 429 with
	// Retry-After.
	TenantRate  float64
	TenantBurst int
	// TenantInflight, when positive, caps each tenant's live (queued +
	// running) jobs. The cap counts followers too: a deduped submission
	// still occupies a slot.
	TenantInflight int
	// TenantWeights sets per-tenant dequeue weights for the fair queue
	// (unlisted tenants weigh 1): a tenant with weight 3 is served three
	// jobs per round-robin visit instead of one.
	TenantWeights map[string]int
	// Timeout and Retries are the per-attempt supervision contract each
	// job runs under (see supervise.Options). Zero Timeout means no
	// per-attempt deadline; zero Retries means one attempt.
	Timeout time.Duration
	Retries int
	// Obs is the server-wide observer: its metrics hold fleet totals
	// (every finished job's registry is merged in), its log receives
	// job lifecycle lines.
	Obs *obs.Observer
	// Metrics enables service observability: latency histograms (queue
	// wait, run duration, submit-to-done, per-stage wall time) labeled
	// per tenant and profile in the fleet registry, and the /metrics
	// Prometheus endpoint. Off, the server records only the counters it
	// always did — observability must never perturb artifacts, and with
	// Metrics false it does not even cost the histogram updates.
	Metrics bool
	// SLOs configures per-tenant service objectives (see ParseSLOs);
	// the "default" entry covers tenants without their own. Empty
	// disables SLO tracking and its gauges.
	SLOs map[string]SLOObjective
	// EventKeepalive is the idle interval after which the events stream
	// emits a keepalive frame (a seq-less NDJSON record) so proxies and
	// clients can distinguish a quiet job from a dead connection. Zero
	// means the 15s default; negative disables keepalives.
	EventKeepalive time.Duration
	// ShedTarget enables the adaptive overload controller: when the
	// standing queue delay (windowed minimum of measured waits, or the
	// head-of-line age) exceeds it, new default-profile submissions are
	// browned out to the fast profile; past twice the target, fresh
	// computations are shed with 503 and a drain-rate Retry-After. Zero
	// disables both notches (the honest Retry-After for a full queue
	// still works).
	ShedTarget time.Duration
	// BreakerThreshold enables the per-(unit, profile) circuit breaker:
	// that many consecutive non-deadline failures open the circuit and
	// fast-fail fresh submissions for the unit until a post-cooldown
	// probe succeeds. Zero disables it. BreakerCooldown is the open
	// period before a probe is admitted (0 = 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DiskSoftBytes and DiskHardBytes are the disk-pressure watermarks
	// on the journal/cache filesystem: below soft, the server sweeps the
	// cache and forces the brownout notch; below hard, submissions are
	// rejected with 507 while reads and /metrics stay alive. Zero
	// disables a watermark. DiskPoll is the probe interval (0 = 2s).
	DiskSoftBytes int64
	DiskHardBytes int64
	DiskPoll      time.Duration
	// runner overrides the pipeline runner. Test-only (unexported): it
	// must be in place before the worker pool starts, because recovery
	// can hand workers jobs before NewServer returns.
	runner func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error)
	// diskFree overrides the free-space probe. Test-only (unexported).
	diskFree func(path string) (int64, error)
}

// ErrQueueFull rejects a submission when the pending queue is at
// QueueDepth.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrJournal rejects a submission whose accept record could not be made
// durable: acknowledging it would promise a durability the server
// cannot deliver, so the client gets a retryable 503 instead.
var ErrJournal = errors.New("serve: journal write failed")

// ErrNotReady rejects submissions before Start has finished journal
// recovery and opened the worker pool (HTTP 503; /readyz mirrors it).
var ErrNotReady = errors.New("serve: server not ready")

// errShutdown is the cause recorded on jobs canceled by server
// shutdown.
var errShutdown = errors.New("server shutting down")

// errDeadline is the cause recorded on jobs shed because their client
// deadline passed while they were still queued (or before recovery
// could requeue them): canceled without consuming a worker.
var errDeadline = errors.New("deadline expired before the job ran")

// stateNone tells completeLocked to journal nothing for this
// transition: used for queued jobs at shutdown (they stay queued in the
// journal, which is exactly what makes the queue durable) and for
// followers of an interrupted leader (they replay as queued and
// re-attach on recovery).
const stateNone State = ""

// Server owns the job table, the tenant-fair bounded queue, the worker
// pool, the admission gate and the job journal.
type Server struct {
	cfg   Config
	inner int // per-job worker budget (Workers split across Jobs)
	fan   int // worker pool size (cfg.Jobs after budget split)

	queue   *fairQueue
	adm     *admission
	journal *Journal
	slo     *sloTracker
	ovl     *overloadController
	brk     *breakerSet

	// pool is the shared image-buffer pool handed to every job's
	// reconstruction: slice buffers recycled across jobs instead of
	// reallocated per run. Safe for concurrent jobs (the pool is
	// lock-protected) and sized by use, not configuration.
	pool *img.Pool

	// diskFree (bytes; -1 before the first probe) and diskPressure
	// (diskOK/diskSoft/diskHard) are the disk watchdog's outputs, read
	// on every submission and at scrape.
	diskFree     atomic.Int64
	diskPressure atomic.Int32
	ctx          context.Context // canceled by Close; parent of every job ctx
	stop         context.CancelFunc
	wg           sync.WaitGroup
	runner       func(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error)

	// ready flips true once Start has recovered the journal and opened
	// the worker pool; /readyz and Submit gate on it. started guards
	// double Start.
	ready   atomic.Bool
	started atomic.Bool

	// gcMu serializes cache sweeps: a publish that finds one already
	// running skips its own (the running sweep sees the new bytes).
	gcMu sync.Mutex

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string        // submission order, for List
	inflight  map[string]*job // dedupe key -> leader job
	nextID    int
	recovered int // jobs re-enqueued from the journal at startup
	closed    bool
}

// New builds a server without starting it: the journal is not yet
// recovered, the worker pool is not running, and Submit refuses with
// ErrNotReady. The split lets the HTTP listener come up first and
// answer /healthz (alive) and /readyz (not ready) while Start replays
// a possibly large journal — the readiness window is real, not
// cosmetic. Callers that don't care use NewServer.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	fan, inner := par.SplitBudget(cfg.Workers, cfg.Jobs)
	ctx, stop := context.WithCancel(context.Background())
	weights := cfg.TenantWeights
	s := &Server{
		cfg:   cfg,
		inner: inner,
		fan:   fan,
		queue: newFairQueue(cfg.QueueDepth, func(lane string) int {
			return weights[lane]
		}),
		adm:      newAdmission(cfg.TenantRate, cfg.TenantBurst, cfg.TenantInflight),
		slo:      newSLOTracker(cfg.SLOs),
		ovl:      newOverloadController(cfg.ShedTarget),
		brk:      newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		pool:     img.NewPool(),
		ctx:      ctx,
		stop:     stop,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	s.diskFree.Store(-1)
	s.runner = s.runPipeline
	if cfg.runner != nil {
		s.runner = cfg.runner
	}
	return s
}

// Start recovers the journal (when configured), starts the worker pool
// and marks the server ready. It runs at most once; calling it on an
// already-started server is a no-op.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return nil
	}
	if s.cfg.JournalPath != "" {
		if err := s.recoverJournal(s.cfg.JournalPath); err != nil {
			s.stop()
			return err
		}
	}
	s.wg.Add(s.fan)
	for i := 0; i < s.fan; i++ {
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.queue.pop()
				if !ok {
					return
				}
				s.execute(j)
			}
		}()
	}
	s.maybeGC()
	if s.diskGuardEnabled() {
		// Probe once before readiness — a server started under the hard
		// watermark must reject from its first submission — then watch.
		s.diskCheck()
		s.wg.Add(1)
		go s.diskWatch()
	}
	s.ready.Store(true)
	s.cfg.Obs.Info("serve: pool started", "jobs", s.fan, "workers_per_job", s.inner,
		"queue", s.cfg.QueueDepth, "journal", s.cfg.JournalPath, "recovered", s.recovered)
	return nil
}

// NewServer is New followed by Start: recovers the journal, starts the
// worker pool and returns a ready server. Close must be called to
// release it.
func NewServer(cfg Config) (*Server, error) {
	s := New(cfg)
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// Ready reports whether the server accepts work: Start completed
// (journal recovered, pool running) and Close has not begun.
func (s *Server) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// recoverJournal replays the journal into the job table, compacts the
// file and requeues every job that was acknowledged but not finished:
// first the ones that were running when the last life ended (their
// stage checkpoints are warmest), then the queued ones, in submission
// order. A recovered job whose artifacts already reached the cache —
// the crash landed between publish and the done record — completes
// immediately without rerunning. Runs before the worker pool starts, so
// no locking is needed.
func (s *Server) recoverJournal(path string) error {
	recs, _, torn, err := ReadJournal(path)
	if err != nil {
		return err
	}
	if torn > 0 {
		s.cfg.Obs.Count("serve.journal_torn_tail", 1)
		s.cfg.Obs.Info("serve: truncating torn journal tail", "bytes", torn)
	}
	replayed := replayJournal(recs)
	breakers := replayBreakers(recs)
	// Compact first: the rewrite both truncates any torn tail and bounds
	// the file before fresh records append behind it. Non-closed breaker
	// states ride the compacted journal, one record per key.
	s.journal, err = CreateJournal(path, append(compactRecords(replayed), compactBreakers(breakers)...))
	if err != nil {
		return err
	}
	for key, rec := range breakers {
		// A persistently failing unit stays fenced across the restart; the
		// cooldown counts from the journaled transition time.
		s.brk.restore(key, rec.BreakerState, rec.Fails, rec.Time)
	}
	ids := make([]string, 0, len(replayed))
	for id := range replayed {
		ids = append(ids, id)
	}
	sortJobIDs(ids)
	var wasRunning, wasQueued []*job
	for _, id := range ids {
		r := replayed[id]
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		j := &job{
			id: id, req: *r.accept.Req,
			unit: r.accept.Unit, fp: r.accept.Fingerprint, dedupe: r.accept.Dedupe,
			tenantKey: sanitizeTenant(r.accept.Req.Tenant),
			corr:      r.accept.Corr,
			state:     StateQueued, created: r.accept.Time,
			recovered: true,
			update:    make(chan struct{}),
			metrics:   obs.NewMetrics(), trace: obs.NewTrace(),
		}
		if r.accept.Req.DeadlineMS > 0 {
			// The deadline is anchored to the original acceptance, not the
			// restart: the client's clock kept running through the outage.
			j.deadline = r.accept.Time.Add(time.Duration(r.accept.Req.DeadlineMS) * time.Millisecond)
		}
		// The correlation ID survives the crash with the accept record:
		// a job's second life traces under the same ID as its first.
		j.trace.SetCorrelation(j.corr)
		s.jobs[id] = j
		s.order = append(s.order, id)
		switch r.state {
		case StateDone:
			j.state = StateDone
			j.finished = r.at
			// Best effort: the artifacts outlive the process only in the
			// cache; a GC'd entry just means the job reports done with no
			// downloadable artifacts, like any cache miss.
			j.artifacts = cacheLookup(s.cfg.Cache, j.unit, j.fp, j.req.Views, s.cfg.Obs)
			j.eventLocked("recovered", "terminal in journal: done")
		case StateFailed, StateCanceled:
			j.state = r.state
			j.err = errors.New(r.cause)
			j.finished = r.at
			j.eventLocked("recovered", "terminal in journal: "+string(r.state))
		case StateRunning, StateInterrupted:
			j.eventLocked("recovered", "was "+string(r.state)+"; resubmitted")
			wasRunning = append(wasRunning, j)
		default: // queued (accept only)
			j.eventLocked("recovered", "requeued")
			wasQueued = append(wasQueued, j)
		}
	}
	for _, j := range append(wasRunning, wasQueued...) {
		s.requeueRecoveredLocked(j)
	}
	s.cfg.Obs.Count("serve.recovered_running", int64(len(wasRunning)))
	s.cfg.Obs.Count("serve.recovered_queued", int64(len(wasQueued)))
	return nil
}

// requeueRecoveredLocked puts one recovered live job back in flight:
// cache-complete if its previous life already published, otherwise
// requeue past the depth and quota gates (it was acknowledged once; it
// is never bounced now). Caller is the single-threaded recovery path or
// holds the mutex.
func (s *Server) requeueRecoveredLocked(j *job) {
	if cached := cacheLookup(s.cfg.Cache, j.unit, j.fp, j.req.Views, s.cfg.Obs); cached != nil {
		j.cacheHit = true
		j.artifacts = cached
		j.metrics.Add("serve.cache_hit", 1)
		s.cfg.Obs.Count("serve.cache_hits", 1)
		j.eventLocked("cache_hit", "published before crash; completed from cache")
		s.completeLocked(j, StateDone, nil, StateDone)
		return
	}
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		// The outage outlived the client's deadline: requeueing would run
		// a job nobody is waiting for.
		s.cfg.Obs.Count("serve.deadline_shed", 1)
		j.eventLocked("deadline", "deadline expired before recovery; shed")
		s.completeLocked(j, StateCanceled, errDeadline, StateCanceled)
		return
	}
	s.recovered++
	s.adm.acquire(j.tenantKey, true)
	j.admitted = true
	if leader, ok := s.inflight[j.dedupe]; ok && leader != j {
		j.dedupedOf = leader.id
		leader.followers = append(leader.followers, j)
		j.eventLocked("deduped", "attached to recovered "+leader.id)
		return
	}
	s.inflight[j.dedupe] = j
	if err := s.queue.push(j, true); err != nil {
		// Only possible if the queue is already closed — recovery runs
		// before Close can be called, so this is defensive.
		s.completeLocked(j, StateFailed, err, StateFailed)
	}
}

// Close stops accepting submissions, cancels running jobs, marks
// queued jobs canceled in memory — the journal deliberately keeps them
// queued, so a journaled server's pending work survives the restart —
// and waits for the workers to drain (bounded by ctx).
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.queue.close()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateQueued {
			s.completeLocked(j, StateCanceled, errShutdown, stateNone)
		}
	}
	s.mu.Unlock()
	s.stop() // cancels every running job's context

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.journal.Close()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit accepts a job. The returned status is the job's state at
// return: done with artifacts on a cache hit, queued otherwise (either
// in a tenant lane of the fair queue or attached to an identical
// in-flight job). The accept record is durable before Submit returns —
// when a journal is configured, an acknowledged job survives anything
// short of losing the disk.
func (s *Server) Submit(req Request) (JobStatus, error) {
	return s.SubmitCorr(req, "")
}

// SubmitCorr is Submit with a correlation ID — the request ID of the
// HTTP submission that created the job. The ID rides the job through
// its whole life: it is journaled with the accept record (and restored
// on recovery), tagged onto the job's trace so the Chrome export can
// be joined back to the access log, and surfaced in JobStatus.
func (s *Server) SubmitCorr(req Request, corr string) (JobStatus, error) {
	if !s.ready.Load() {
		return JobStatus{}, ErrNotReady
	}
	// Hard disk pressure rejects every submission — even a would-be
	// cache hit journals an accept record — while reads, artifact
	// fetches and /metrics stay alive.
	if s.diskPressure.Load() >= diskHard {
		s.cfg.Obs.Count("serve.disk_rejected", 1)
		return JobStatus{}, fmt.Errorf("%w (%d bytes free on %s)", ErrDiskFull, s.diskFree.Load(), s.diskPath())
	}
	// Brownout: one notch before shedding (or under soft disk pressure),
	// new default-profile work degrades to the fast profile unless the
	// client opted out. Applied before identity resolution, so the
	// browned-out job dedupes and caches as a genuine fast-profile run.
	level := s.overloadLevel()
	brownout := false
	if level >= levelBrownout && !req.NoBrownout && effectiveProfile(req.Profile) == "default" {
		req.Profile = "fast"
		brownout = true
	}
	unit, fp, dedupe, err := req.identity()
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	corr = obs.SanitizeLabelValue(corr)
	tenant := sanitizeTenant(req.Tenant)
	// The rate gate runs before any disk work: a flooding tenant is
	// bounced by a map lookup, not after a cache probe on its behalf.
	if lerr := s.adm.admitRate(tenant); lerr != nil {
		s.cfg.Obs.Count("serve.tenant_rejected", 1)
		return JobStatus{}, lerr
	}
	// Cache probe outside the lock: it reads files, and a stale miss is
	// harmless (the in-flight dedupe below still collapses duplicates).
	cached := cacheLookup(s.cfg.Cache, unit, fp, req.Views, s.cfg.Obs)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	s.nextID++
	j := &job{
		id: newJobID(s.nextID), req: req,
		unit: unit, fp: fp, dedupe: dedupe,
		tenantKey: tenant, corr: corr,
		state: StateQueued, created: time.Now(),
		update:  make(chan struct{}),
		metrics: obs.NewMetrics(), trace: obs.NewTrace(),
	}
	if req.DeadlineMS > 0 {
		j.deadline = j.created.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	j.trace.SetCorrelation(corr)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	j.eventLocked("queued", "fingerprint "+fp)
	if brownout {
		j.brownout = true
		j.metrics.Add("serve.brownout", 1)
		s.cfg.Obs.Count("serve.brownout", 1)
		j.eventLocked("brownout", "default profile degraded to fast under overload")
	}
	s.cfg.Obs.Count("serve.jobs_submitted", 1)
	if tenant != "" {
		s.cfg.Obs.Count("serve.tenant."+tenant+".jobs", 1)
	}

	if cached != nil {
		if err := s.journalAcceptLocked(j); err != nil {
			s.forgetLocked(j)
			return JobStatus{}, err
		}
		j.cacheHit = true
		j.artifacts = cached
		j.metrics.Add("serve.cache_hit", 1)
		s.cfg.Obs.Count("serve.cache_hits", 1)
		j.eventLocked("cache_hit", "served from result cache")
		s.completeLocked(j, StateDone, nil, StateDone)
		return j.statusLocked(), nil
	}

	// A follower rides its leader's computation but still occupies one
	// of its tenant's in-flight slots; a fresh leader additionally needs
	// queue capacity. Capacity is checked before the journal write so an
	// accepted record always corresponds to a job the server will run.
	leader, hasLeader := s.inflight[j.dedupe]
	if !hasLeader && s.queue.full() {
		s.cfg.Obs.Count("serve.queue_full", 1)
		s.forgetLocked(j)
		return JobStatus{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	// Adaptive shedding and the circuit breaker gate only fresh leaders:
	// cache hits cost no computation and a follower rides one already
	// admitted, so rejecting either would refuse nearly free work.
	brkKey := ""
	if !hasLeader {
		if level >= levelShed {
			s.cfg.Obs.Count("serve.shed", 1)
			s.forgetLocked(j)
			return JobStatus{}, fmt.Errorf("%w (standing queue delay over %s)", ErrShed, 2*s.cfg.ShedTarget)
		}
		if s.brk.enabled() {
			brkKey = breakerKeyOf(unit, req.Profile)
			if ra, ok := s.brk.allow(brkKey); !ok {
				s.cfg.Obs.Count("serve.breaker_rejected", 1)
				s.forgetLocked(j)
				return JobStatus{}, &BreakerOpenError{
					Unit: unit, Profile: effectiveProfile(req.Profile), RetryAfter: ra,
				}
			}
		}
	}
	if lerr := s.adm.acquire(tenant, false); lerr != nil {
		s.cfg.Obs.Count("serve.tenant_rejected", 1)
		if brkKey != "" {
			s.brk.cancelProbe(brkKey)
		}
		s.forgetLocked(j)
		return JobStatus{}, lerr
	}
	j.admitted = true
	if err := s.journalAcceptLocked(j); err != nil {
		s.adm.release(tenant)
		j.admitted = false
		if brkKey != "" {
			s.brk.cancelProbe(brkKey)
		}
		s.forgetLocked(j)
		return JobStatus{}, err
	}
	if hasLeader {
		j.dedupedOf = leader.id
		leader.followers = append(leader.followers, j)
		j.metrics.Add("serve.dedup_attached", 1)
		s.cfg.Obs.Count("serve.dedup_attached", 1)
		j.eventLocked("deduped", "attached to in-flight "+leader.id)
		return j.statusLocked(), nil
	}
	s.inflight[j.dedupe] = j
	// Cannot fail: capacity was verified above and every push runs under
	// s.mu, so no competing push can steal the slot (pop only shrinks).
	if err := s.queue.push(j, true); err != nil {
		if brkKey != "" {
			s.brk.cancelProbe(brkKey)
		}
		s.completeLocked(j, StateFailed, err, StateFailed)
		delete(s.inflight, j.dedupe)
		return JobStatus{}, err
	}
	return j.statusLocked(), nil
}

// overloadLevel is the combined degradation notch: the adaptive
// controller's verdict on standing queue delay, floored at brownout
// while the disk is under the soft watermark (less written per job is
// exactly what a filling disk needs).
func (s *Server) overloadLevel() int {
	level := levelHealthy
	if s.ovl != nil {
		var headAge time.Duration
		if at, ok := s.queue.oldest(); ok {
			headAge = time.Since(at)
		}
		level = s.ovl.level(headAge)
	}
	if s.diskPressure.Load() >= diskSoft && level < levelBrownout {
		level = levelBrownout
	}
	return level
}

// retryAfterHint estimates the Retry-After seconds for a shed or
// queue-full rejection from the current backlog and the drain-rate
// EWMA.
func (s *Server) retryAfterHint() int {
	return s.ovl.retryAfter(s.queue.pending(), s.fan)
}

// forgetLocked erases a job that was never acknowledged: the client got
// an error, not a job ID, so no trace of it may remain. Only valid for
// the newest job while the mutex has been held since its creation.
func (s *Server) forgetLocked(j *job) {
	delete(s.jobs, j.id)
	s.order = s.order[:len(s.order)-1]
	s.nextID--
}

// journalAcceptLocked makes the job's accept record durable. A failure
// is returned (wrapped in ErrJournal) so the caller can refuse the
// submission: a job the journal cannot hold must not be acknowledged.
func (s *Server) journalAcceptLocked(j *job) error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.Append(JournalRecord{
		Op: opAccept, ID: j.id, Time: j.created,
		Req: &j.req, Unit: j.unit, Fingerprint: j.fp, Dedupe: j.dedupe,
		Corr: j.corr,
	})
	if err != nil {
		s.cfg.Obs.Count("serve.journal_errors", 1)
		if errors.Is(err, syscall.ENOSPC) {
			// The disk just proved fuller than the last poll saw: re-probe
			// the watermarks (and sweep) without waiting for the ticker.
			// Async — diskCheck takes s.mu via the GC pin snapshot.
			if s.diskGuardEnabled() {
				go s.diskCheck()
			} else {
				go s.maybeGC()
			}
		}
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// breakerResultLocked feeds one completed run's verdict to the breaker
// and, when the key's journaled state changed, counts, logs and
// persists the transition. Caller holds the mutex.
func (s *Server) breakerResultLocked(key string, success bool) {
	state, fails, changed := s.brk.onResult(key, success)
	if !changed {
		return
	}
	unit, profile, _ := strings.Cut(key, "|")
	s.cfg.Obs.Count("serve.breaker_"+state, 1)
	s.cfg.Obs.Info("serve: breaker "+state, "unit", unit, "profile", profile, "fails", fails)
	s.journalBreakerLocked(key, state, fails)
}

// journalBreakerLocked appends a breaker transition. Best effort, like
// state transitions: the in-memory breaker is already correct, and a
// logging failure must not fail the job that tripped it.
func (s *Server) journalBreakerLocked(key, state string, fails int) {
	if s.journal == nil {
		return
	}
	rec := JournalRecord{Op: opBreaker, Time: time.Now(),
		Breaker: key, BreakerState: state, Fails: fails}
	if err := s.journal.Append(rec); err != nil {
		s.cfg.Obs.Count("serve.journal_errors", 1)
		s.cfg.Obs.Info("serve: journal breaker append failed", "key", key, "state", state, "error", err)
	}
}

// journalStateLocked appends a state transition. Transition records are
// best effort: the job already ran (or didn't), and failing the job
// over a logging error would discard real work — recovery degrades to
// rerunning it, which the stage checkpoints make cheap.
func (s *Server) journalStateLocked(j *job, state State, cause error) {
	if s.journal == nil {
		return
	}
	rec := JournalRecord{Op: opState, ID: j.id, Time: time.Now(), State: state}
	if cause != nil {
		rec.Cause = cause.Error()
	}
	if err := s.journal.Append(rec); err != nil {
		s.cfg.Obs.Count("serve.journal_errors", 1)
		s.cfg.Obs.Info("serve: journal state append failed", "job", j.id, "state", string(state), "error", err)
	}
}

// completeLocked is the single terminal-transition choke point: it
// finishes the job in memory, releases its tenant in-flight slot,
// journals the transition (stateNone journals nothing — the durable
// state intentionally diverges from the in-memory one at shutdown) and
// folds the job's metrics into the fleet registry, each exactly once.
// Caller holds the mutex.
func (s *Server) completeLocked(j *job, state State, cause error, jstate State) {
	if j.state.terminal() {
		return
	}
	j.finishLocked(state, cause)
	if j.admitted {
		s.adm.release(j.tenantKey)
		j.admitted = false
	}
	if jstate != stateNone {
		s.journalStateLocked(j, jstate, cause)
	}
	s.cfg.Obs.Count("serve.jobs_"+string(state), 1)
	latency := j.finished.Sub(j.created)
	s.slo.record(j.tenantKey, state == StateDone, latency)
	if s.cfg.Metrics {
		s.observeCompletionLocked(j, latency)
	}
	s.mergeJobLocked(j)
}

// observeCompletionLocked folds a finished job's timings into the
// fleet histograms: submit-to-done latency and run duration labeled by
// tenant and profile, per-stage wall time labeled by stage. Caller
// holds the mutex; the trace mutex is a leaf, so reading the summary
// here is safe.
func (s *Server) observeCompletionLocked(j *job, latency time.Duration) {
	m := s.fleetMetrics()
	if m == nil {
		return
	}
	tenant := obs.Label{Key: "tenant", Value: j.tenantKey}
	profile := j.req.Profile
	if profile == "" {
		profile = "default"
	}
	m.Observe(obs.Series("serve.job_latency", tenant), latency)
	if !j.started.IsZero() {
		m.Observe(obs.Series("serve.run_duration", tenant,
			obs.Label{Key: "profile", Value: profile}), j.finished.Sub(j.started))
	}
	if stats, _ := j.trace.Summary(); len(stats) > 0 {
		for _, st := range stats {
			m.Observe(obs.Series("serve.stage_wall",
				obs.Label{Key: "stage", Value: st.Name}), st.Total)
		}
	}
}

// fleetMetrics returns the fleet metric registry (nil when metrics are
// not attached; *obs.Metrics methods are nil-safe).
func (s *Server) fleetMetrics() *obs.Metrics {
	if s.cfg.Obs == nil {
		return nil
	}
	return s.cfg.Obs.Metrics
}

// execute runs one leader job on a pool worker.
func (s *Server) execute(j *job) {
	s.mu.Lock()
	if j.state.terminal() { // canceled while queued
		if s.inflight[j.dedupe] == j {
			s.promoteLocked(j)
		}
		s.mu.Unlock()
		return
	}
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		// The client's deadline passed while the job sat in the queue:
		// running it now would burn a worker on an answer nobody is
		// waiting for. Shed it as canceled; followers (which may carry
		// laxer deadlines) promote and recompute.
		s.cfg.Obs.Count("serve.deadline_shed", 1)
		j.eventLocked("deadline", "deadline expired while queued; shed without running")
		s.completeLocked(j, StateCanceled, errDeadline, StateCanceled)
		if s.inflight[j.dedupe] == j {
			s.promoteLocked(j)
		}
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.queueWait = j.started.Sub(j.created)
	s.ovl.observeDelay(time.Since(j.pushedAt))
	if s.cfg.Metrics {
		s.fleetMetrics().Observe(obs.Series("serve.queue_wait",
			obs.Label{Key: "tenant", Value: j.tenantKey}), j.queueWait)
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.ctx)
	} else {
		// The remaining client deadline bounds the whole run: supervise's
		// per-attempt timeout still applies inside it, and expiry surfaces
		// as context.DeadlineExceeded → the job fails (HTTP 504 for a
		// synchronous wait; "failed" with the cause for pollers).
		ctx, cancel = context.WithDeadline(s.ctx, j.deadline)
	}
	j.cancel = cancel
	ob := &obs.Observer{Trace: j.trace, Metrics: j.metrics, Log: s.logger()}
	j.eventLocked("running", "")
	s.journalStateLocked(j, StateRunning, nil)
	req := j.req
	s.mu.Unlock()
	defer cancel()

	s.cfg.Obs.Count("serve.runs", 1)
	s.cfg.Obs.Info("serve: job running", "job", j.id, "corr", j.corr,
		"tenant", j.tenantKey, "chip", req.Chip, "fp", j.fp)
	artifacts, err := s.runner(ctx, req, s.inner, ob)
	if s.ctx.Err() == nil {
		// Feed the drain-rate EWMA with how long the worker was occupied
		// (shutdown truncates runs and would skew the estimate low).
		s.ovl.observeService(time.Since(j.started))
	}

	published := false
	if err == nil {
		// Publish before announcing: once any client can observe the
		// job done, the cache entry is durable. The same ordering closes
		// the crash window — if the process dies after the publish but
		// before the done record, recovery finds the artifacts in the
		// cache and completes the job without rerunning it.
		if serr := cacheStore(s.cfg.Cache, j.unit, j.fp, artifacts); serr != nil {
			s.cfg.Obs.Info("serve: cache store failed", "job", j.id, "error", serr)
		} else {
			published = true
		}
	}

	s.mu.Lock()
	if s.inflight[j.dedupe] == j {
		delete(s.inflight, j.dedupe)
	}
	brkKey := breakerKeyOf(j.unit, req.Profile)
	switch {
	case err == nil:
		s.breakerResultLocked(brkKey, true)
		j.artifacts = artifacts
		s.completeLocked(j, StateDone, nil, StateDone)
		for _, f := range j.followers {
			if f.state.terminal() {
				continue
			}
			f.artifacts = artifacts
			f.cacheHit = true
			f.metrics.Add("serve.cache_hit", 1)
			s.cfg.Obs.Count("serve.dedup_served", 1)
			f.eventLocked("cache_hit", "served by "+j.id)
			s.completeLocked(f, StateDone, nil, StateDone)
		}
	case s.ctx.Err() != nil:
		// Server shutdown: in memory everyone is canceled, but the
		// journal records the leader as interrupted — it did not fail on
		// its merits, so the next life resubmits it (supervise reports
		// the same taxonomy via Status.Interrupted). Followers get no
		// record: they replay as queued and re-attach on recovery.
		s.brk.cancelProbe(brkKey)
		s.completeLocked(j, StateCanceled, errShutdown, StateInterrupted)
		for _, f := range j.followers {
			s.completeLocked(f, StateCanceled, errShutdown, stateNone)
		}
	case j.cancelRequested:
		s.brk.cancelProbe(brkKey)
		s.completeLocked(j, StateCanceled, errors.New("canceled by client"), StateCanceled)
		// The followers did not ask to be canceled: the first live one
		// becomes the new leader and recomputes.
		s.promoteLocked(j)
	default:
		if !j.deadline.IsZero() && errors.Is(err, context.DeadlineExceeded) {
			// A client's too-tight deadline says nothing about the unit's
			// health; don't charge the breaker for it.
			s.brk.cancelProbe(brkKey)
		} else {
			s.breakerResultLocked(brkKey, false)
		}
		s.completeLocked(j, StateFailed, err, StateFailed)
		// The computation is deterministic, so an identical submission
		// fails identically: propagate rather than recompute.
		for _, f := range j.followers {
			if !f.state.terminal() {
				s.completeLocked(f, StateFailed, fmt.Errorf("deduped job %s failed: %w", j.id, err), StateFailed)
			}
		}
	}
	j.followers = nil
	s.cfg.Obs.Info("serve: job finished", "job", j.id, "corr", j.corr,
		"tenant", j.tenantKey, "state", string(j.state), "err", err)
	s.mu.Unlock()

	if published {
		s.maybeGC()
	}
}

// promoteLocked hands a canceled leader's followers to a new leader.
// Caller holds the mutex; the leader must already be terminal and out
// of (or about to leave) the inflight table.
func (s *Server) promoteLocked(old *job) {
	delete(s.inflight, old.dedupe)
	var live []*job
	for _, f := range old.followers {
		if !f.state.terminal() {
			live = append(live, f)
		}
	}
	old.followers = nil
	if len(live) == 0 {
		return
	}
	leader, rest := live[0], live[1:]
	leader.dedupedOf = ""
	leader.followers = append(leader.followers, rest...)
	for _, f := range rest {
		f.dedupedOf = leader.id
	}
	if s.closed {
		for _, f := range live {
			s.completeLocked(f, StateCanceled, errShutdown, stateNone)
		}
		return
	}
	// Forced push: the promoted follower was acknowledged (and possibly
	// journaled) long ago; bouncing it on a momentarily full queue would
	// fail an accepted job. The overshoot is bounded — it reuses the
	// slot its canceled leader is still holding until a worker pops it.
	if err := s.queue.push(leader, true); err != nil {
		for _, f := range live {
			s.completeLocked(f, StateFailed, fmt.Errorf("could not requeue after %s canceled: %w", old.id, err), StateFailed)
		}
		return
	}
	s.inflight[leader.dedupe] = leader
	leader.eventLocked("promoted", "leader "+old.id+" canceled; requeued")
}

// Cancel requests cancellation. A queued job is canceled immediately; a
// running job's context is canceled and the job reports canceled once
// the worker observes it. Canceling a terminal job is a no-op.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: no such job %q", id)
	}
	switch {
	case j.state.terminal():
	case j.state == StateRunning:
		j.cancelRequested = true
		j.eventLocked("cancel_requested", "")
		j.cancel()
	default: // queued: either a follower or a not-yet-popped leader
		j.cancelRequested = true
		if f := s.detachFollowerLocked(j); !f {
			// Leader still sitting in its lane: mark it canceled; the
			// worker that pops it skips terminal jobs and promotes any
			// followers it accumulated meanwhile.
			s.completeLocked(j, StateCanceled, errors.New("canceled by client"), StateCanceled)
			if s.inflight[j.dedupe] == j && len(j.followers) > 0 {
				// Promote eagerly so followers don't wait for the pop.
				s.promoteLocked(j)
			} else if s.inflight[j.dedupe] == j && len(j.followers) == 0 {
				delete(s.inflight, j.dedupe)
			}
		}
	}
	return j.statusLocked(), nil
}

// detachFollowerLocked removes a queued follower from its leader and
// cancels it. Reports whether j was a follower.
func (s *Server) detachFollowerLocked(j *job) bool {
	if j.dedupedOf == "" {
		return false
	}
	if leader, ok := s.jobs[j.dedupedOf]; ok {
		for i, f := range leader.followers {
			if f == j {
				leader.followers = append(leader.followers[:i], leader.followers[i+1:]...)
				break
			}
		}
	}
	s.completeLocked(j, StateCanceled, errors.New("canceled by client"), StateCanceled)
	return true
}

// pinnedSnapshot captures the (unit, fingerprint) pairs of jobs that
// are not terminal: their stage checkpoints and any already-published
// artifacts must survive a sweep, whatever the budget.
func (s *Server) pinnedSnapshot() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	pins := make(map[string]bool)
	for _, j := range s.jobs {
		if !j.state.terminal() {
			pins[j.unit+"\x00"+j.fp] = true
		}
	}
	return pins
}

// maybeGC sweeps the cache down to CacheBytes, pinning live jobs'
// entries. At most one sweep runs at a time; a publish that finds one
// in flight skips — the running sweep's Scan already sees (or will be
// followed by one that sees) the new bytes.
func (s *Server) maybeGC() {
	if s.cfg.Cache == nil || s.cfg.CacheBytes <= 0 {
		return
	}
	if !s.gcMu.TryLock() {
		return
	}
	defer s.gcMu.Unlock()
	pins := s.pinnedSnapshot()
	res, err := s.cfg.Cache.GC(s.cfg.CacheBytes, func(k ckpt.Key) bool {
		return pins[k.Unit+"\x00"+k.Fingerprint]
	})
	if err != nil {
		s.cfg.Obs.Info("serve: cache gc failed", "error", err)
		return
	}
	s.cfg.Obs.Count("serve.gc_runs", 1)
	s.cfg.Obs.Count("serve.gc_evicted", int64(res.Evicted))
	s.cfg.Obs.Count("serve.gc_evicted_bytes", res.EvictedBytes)
	if res.Evicted > 0 || res.TempRemoved > 0 {
		s.cfg.Obs.Info("serve: cache gc", "evicted", res.Evicted,
			"evicted_bytes", res.EvictedBytes, "pinned", res.Pinned,
			"remaining_bytes", res.RemainingBytes, "temps", res.TempRemoved)
	}
}

// Status returns one job's snapshot.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// List returns every job in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].statusLocked())
	}
	return out
}

// Artifact returns one artifact of a done job.
func (s *Server) Artifact(id, name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: no such job %q", id)
	}
	if j.state != StateDone {
		return nil, fmt.Errorf("serve: job %s is %s, artifacts require done", id, j.state)
	}
	data, ok := j.artifacts[name]
	if !ok {
		return nil, fmt.Errorf("serve: job %s has no artifact %q", id, name)
	}
	return data, nil
}

// Events returns the events of a job from sequence number from on, plus
// a channel that is closed on the next change (nil once the job is
// terminal and fully replayed). ok is false for an unknown job.
func (s *Server) Events(id string, from int) (events []Event, next <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, okJob := s.jobs[id]
	if !okJob {
		return nil, nil, false
	}
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		events = append(events, j.events[from:]...)
	}
	if j.state.terminal() {
		return events, nil, true
	}
	return events, j.update, true
}

// Recovered reports how many journaled jobs the server re-enqueued at
// startup.
func (s *Server) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// FleetSnapshot returns the server-wide metric totals (every finished
// job merged in, plus the serve.* scheduling counters).
func (s *Server) FleetSnapshot() *obs.Snapshot {
	if s.cfg.Obs == nil || s.cfg.Obs.Metrics == nil {
		return &obs.Snapshot{}
	}
	return s.cfg.Obs.Metrics.Snapshot()
}

// MetricsSnapshot is the /metrics view: the fleet snapshot plus
// point-in-time gauges computed at scrape (queue state, per-tenant
// in-flight counts, readiness) and the SLO tracker's derived gauges.
// The additions go into the snapshot copy, never the registry — a
// scrape must not write metrics.
func (s *Server) MetricsSnapshot() *obs.Snapshot {
	snap := s.FleetSnapshot()
	if snap == nil {
		snap = &obs.Snapshot{}
	}
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]float64)
	}
	s.mu.Lock()
	var queued, running int
	perTenant := make(map[string]int)
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		if !j.state.terminal() {
			perTenant[j.tenantKey]++
		}
	}
	jobs := len(s.jobs)
	s.mu.Unlock()
	snap.Gauges["serve.queue_depth"] = float64(s.cfg.QueueDepth)
	snap.Gauges["serve.queued"] = float64(queued)
	snap.Gauges["serve.running"] = float64(running)
	snap.Gauges["serve.jobs"] = float64(jobs)
	ready := 0.0
	if s.Ready() {
		ready = 1
	}
	snap.Gauges["serve.ready"] = ready
	for tenant, n := range perTenant {
		snap.Gauges[obs.Series("serve.inflight",
			obs.Label{Key: "tenant", Value: tenant})] = float64(n)
	}
	snap.Gauges["serve.shed_level"] = float64(s.overloadLevel())
	// Shared image-pool health at scrape time (authoritative and fresher
	// than the per-job gauges merged at completion, which the same keys
	// overwrite here).
	ps := s.pool.Stats()
	snap.Gauges["img.pool.hits"] = float64(ps.Hits)
	snap.Gauges["img.pool.misses"] = float64(ps.Misses)
	snap.Gauges["img.pool.peak_live"] = float64(ps.PeakLive)
	if free := s.diskFree.Load(); free >= 0 {
		snap.Gauges["serve.disk_free_bytes"] = float64(free)
		snap.Gauges["serve.disk_pressure"] = float64(s.diskPressure.Load())
	}
	for _, b := range s.brk.snapshot() {
		snap.Gauges[obs.Series("serve.breaker_state",
			obs.Label{Key: "unit", Value: b.Unit},
			obs.Label{Key: "profile", Value: b.Profile})] = float64(breakerStateNum(b.State))
	}
	s.slo.gauges(snap.Gauges)
	return snap
}

// mergeJobLocked folds a finished job's private metrics into the fleet
// registry. Caller holds the mutex; completeLocked is the only finish
// path, so the merge happens exactly once per job.
func (s *Server) mergeJobLocked(j *job) {
	if s.cfg.Obs == nil || s.cfg.Obs.Metrics == nil {
		return
	}
	s.cfg.Obs.Metrics.Merge(j.metrics.Snapshot())
}

// sortJobIDs orders zero-padded job IDs ("job-000042") — lexicographic
// is submission order.
func sortJobIDs(ids []string) {
	sort.Strings(ids)
}

func (s *Server) logger() *slog.Logger {
	if s.cfg.Obs == nil {
		return nil
	}
	return s.cfg.Obs.Log
}
