package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-mix: a closed loop of two clients, each on its own connection,
// submitting fast-profile jobs for two tenants to an in-process server
// configured like production (on-disk cache and journal).

const (
	mixClients = 2
	// setupReps is how many times a run sets the server up (fresh cache
	// and journal, warm-up jobs); setup_s is their median.
	setupReps = 3
	// baseDwellUS is the fast profile's SEM dwell. Every fresh job adds
	// a distinct tiny offset, which gives it a new options fingerprint
	// while leaving the acquisition, and so the work, unchanged.
	baseDwellUS = 3
	dwellStepUS = 1e-6
)

// opClass is what one closed-loop operation submits.
type opClass int

const (
	// classLeader: one fresh fast job.
	classLeader opClass = iota
	// classPair: a fresh job and, right after, an identical submission
	// that the server attaches to it as a dedupe follower.
	classPair
	// classViews: one fresh job that also renders the planar views.
	classViews
	// classHit: a repeat of an earlier finished job, served from the
	// at-rest cache.
	classHit
)

// classDeck is one block of operations, shuffled per block. Counted in
// submissions it is 50% fresh leaders, 15% followers, 10% views jobs
// and 25% cache hits.
var classDeck = func() []opClass {
	var deck []opClass
	for _, c := range []struct {
		class opClass
		n     int
	}{{classLeader, 7}, {classPair, 3}, {classViews, 2}, {classHit, 5}} {
		for i := 0; i < c.n; i++ {
			deck = append(deck, c.class)
		}
	}
	return deck
}()

var tenants = []string{"alice", "bob"}

// mixChips are the chips serve-mix submits: all of them but those whose
// fast-profile job is pinned in knownDefects.
func mixChips() []string {
	var ids []string
	for _, c := range chips.All() {
		if !knownDefect("serve-mix", c.ID, 0) {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// mixOp is one scheduled operation.
type mixOp struct {
	class opClass
	chip  string
	// tenant indexes tenants; a pair's follower uses the other one.
	tenant int
	dwell  float64
	// pick selects the repeated job of a classHit among those finished.
	pick int
}

// schedule yields the seeded operation sequence. Classes come from
// shuffled blocks of classDeck and chips from shuffled rounds of
// mixChips, so every stretch of a run sees the same mix.
type schedule struct {
	mu      sync.Mutex
	rng     *rand.Rand
	classes []opClass
	chips   []string
	fresh   int
}

func newSchedule(seed int64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed))}
}

func (s *schedule) next() mixOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.classes) == 0 {
		s.classes = append([]opClass(nil), classDeck...)
		s.rng.Shuffle(len(s.classes), func(i, j int) { s.classes[i], s.classes[j] = s.classes[j], s.classes[i] })
	}
	op := mixOp{class: s.classes[0], tenant: s.rng.Intn(len(tenants)), pick: s.rng.Int()}
	s.classes = s.classes[1:]
	if op.class == classHit {
		return op
	}
	if len(s.chips) == 0 {
		s.chips = append(s.chips, mixChips()...)
		s.rng.Shuffle(len(s.chips), func(i, j int) { s.chips[i], s.chips[j] = s.chips[j], s.chips[i] })
	}
	op.chip = s.chips[0]
	s.chips = s.chips[1:]
	s.fresh++
	op.dwell = baseDwellUS + float64(s.fresh)*dwellStepUS
	return op
}

// client is one closed-loop client with its own connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit posts a job and returns the server's acknowledgement.
func (c *client) submit(req serve.Request) (serve.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.JobStatus{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return serve.JobStatus{}, fmt.Errorf("submit %s: HTTP %d: %s", req.Chip, resp.StatusCode, bytes.TrimSpace(data))
	}
	var st serve.JobStatus
	return st, json.Unmarshal(data, &st)
}

// wait follows the job's event stream until it reaches a terminal state,
// so completion is seen when it happens rather than at a poll tick.
func (c *client) wait(id string) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		switch serve.State(ev.Kind) {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended before the job finished", id)
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) status(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	return st, c.getJSON("/v1/jobs/"+id, &st)
}

// digests fetches every artifact of a done job, hashes it, and parses
// its report.
func (c *client) digests(st serve.JobStatus) (map[string][32]byte, *serve.Report, error) {
	out := make(map[string][32]byte, len(st.Artifacts))
	var rep *serve.Report
	for _, name := range st.Artifacts {
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/artifacts/" + name)
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("artifact %s of %s: HTTP %d", name, st.ID, resp.StatusCode)
		}
		out[name] = sha256.Sum256(data)
		if name == serve.ArtifactReport {
			rep = &serve.Report{}
			if err := json.Unmarshal(data, rep); err != nil {
				return nil, nil, err
			}
		}
	}
	if rep == nil {
		return nil, nil, fmt.Errorf("%s: done without %s", st.ID, serve.ArtifactReport)
	}
	return out, rep, nil
}

// mixServer is one set-up server: its HTTP endpoint and state on disk.
type mixServer struct {
	dir   string
	srv   *serve.Server
	http  *http.Server
	base  string
	store *ckpt.Store
	done  chan struct{}
}

// startServer brings a server up with a fresh cache and journal in dir,
// the way `hifidram serve -cache-dir -journal -jobs 2` does.
func startServer(dir string, workers int) (*mixServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := ckpt.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{
		Workers: workers, Jobs: 2, Cache: store,
		JournalPath: filepath.Join(dir, "journal"),
		Obs:         &obs.Observer{Metrics: obs.NewMetrics()},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &mixServer{
		dir: dir, srv: s, store: store, done: make(chan struct{}),
		http: &http.Server{Handler: serve.NewMux(s), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(m.done)
		_ = m.http.Serve(ln)
	}()
	if err := s.Start(); err != nil {
		m.stop()
		return nil, err
	}
	return m, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (m *mixServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = m.http.Shutdown(ctx)
	<-m.done
	_ = m.srv.Close(ctx)
}

// fleetRuns reads the server's pipeline run count from /healthz.
func fleetRuns(c *client) (int64, error) {
	var h struct {
		Runs int64 `json:"runs"`
	}
	return h.Runs, c.getJSON("/healthz", &h)
}

// mixState is what the clients share during a run.
type mixState struct {
	mu sync.Mutex
	// finished lists the requests of done jobs, the targets of hits.
	finished []serve.Request
	// leaderDigests holds each computed job's artifact digests by
	// dedupe identity (fingerprint plus views flag).
	leaderDigests map[string]map[string][32]byte
	// leaderKeys counts server-side leaders per identity.
	leaderKeys map[string]int
	fid        fidelity

	// attempted and failed count every submission, warm-ups included;
	// the other counts cover the measured phase only.
	attempted, failed          int
	submitted, hits, followers int
	completed                  int
	correct                    bool
	leaderLat, hitSubmit       []float64
	freshSubmit                []float64
	queueWait, run             []float64
}

// identityOf is a job's dedupe identity: the options fingerprint does
// not cover the chip, so chips sharing a detector share fingerprints.
func identityOf(st serve.JobStatus) string {
	key := st.Chip + "/" + st.Fingerprint
	if st.Views {
		key += "/views"
	}
	return key
}

// violation records a failed correctness check: the operation fails and
// the run is incorrect.
func (ms *mixState) violation(format string, args ...any) {
	ms.correct = false
	ms.failed++
	fmt.Fprintf(os.Stderr, "perfbench: correctness: "+format+"\n", args...)
}

// subm is one submission as the client saw it.
type subm struct {
	req    serve.Request
	class  opClass
	ack    serve.JobStatus
	submit time.Duration
	t0     time.Time
}

// request builds the request of a fresh (new fingerprint) submission.
func (op mixOp) request() serve.Request {
	return serve.Request{
		Chip: op.chip, Profile: "fast", Tenant: tenants[op.tenant],
		DwellUS: op.dwell, Views: op.class == classViews,
	}
}

func (c *client) send(req serve.Request, class opClass) (*subm, error) {
	s := &subm{req: req, class: class, t0: time.Now()}
	var err error
	s.ack, err = c.submit(req)
	s.submit = time.Since(s.t0)
	return s, err
}

// finish waits for a submission, checks it and records its metrics.
// timed marks submissions of the measured phase.
func (ms *mixState) finish(c *client, s *subm, timed bool) error {
	if err := c.wait(s.ack.ID); err != nil {
		return err
	}
	lat := time.Since(s.t0)
	st, err := c.status(s.ack.ID)
	if err != nil {
		return err
	}
	var dig map[string][32]byte
	var rep *serve.Report
	if st.State == serve.StateDone {
		if dig, rep, err = c.digests(st); err != nil {
			return err
		}
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	hit := s.ack.CacheHit
	follower := s.ack.DedupedOf != ""
	leader := !hit && !follower
	key := identityOf(st)
	ms.attempted++
	if timed {
		ms.completed++
		ms.submitted++
		switch {
		case hit:
			ms.hits++
			ms.hitSubmit = append(ms.hitSubmit, secs(s.submit))
		case follower:
			ms.followers++
		default:
			ms.freshSubmit = append(ms.freshSubmit, secs(s.submit))
		}
	}
	switch {
	case s.class == classHit && !hit:
		ms.violation("%s: repeat of a finished job was not a cache hit", st.ID)
	case (s.class == classLeader || s.class == classViews) && !leader:
		ms.violation("%s: fresh job was not computed (cache hit %v, deduped of %q)", st.ID, hit, s.ack.DedupedOf)
	}
	if leader {
		ms.leaderKeys[key]++
	}
	if st.State != serve.StateDone {
		ms.failed++
		ms.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s %s %s: %s\n", st.ID, st.Chip, st.State, st.Error)
		return nil
	}
	if leader {
		ms.leaderDigests[key] = dig
		ms.finished = append(ms.finished, s.req)
		if timed {
			if s.class != classViews {
				ms.leaderLat = append(ms.leaderLat, secs(lat))
			}
			ms.queueWait = append(ms.queueWait, st.QueueWaitMS/1000)
			ms.run = append(ms.run, st.RunMS/1000)
		}
	} else if want, ok := ms.leaderDigests[key]; !ok {
		ms.violation("%s: served %s before its leader finished", st.ID, key)
	} else if !sameDigests(want, dig) {
		ms.violation("%s: artifacts differ from its leader's (%s)", st.ID, key)
	}
	ms.fid.add(rep.Chip, rep.MeanRelErrPct, rep.TransistorsFound, rep.TransistorsTrue,
		rep.TopologyCorrect && rep.BitlinesFound == rep.BitlinesTrue)
	return nil
}

func sameDigests(a, b map[string][32]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// do runs one scheduled operation.
func (ms *mixState) do(c *client, op mixOp) error {
	switch op.class {
	case classHit:
		ms.mu.Lock()
		req := ms.finished[op.pick%len(ms.finished)]
		ms.mu.Unlock()
		req.Tenant = tenants[op.tenant]
		s, err := c.send(req, classHit)
		if err != nil {
			return err
		}
		return ms.finish(c, s, true)
	case classPair:
		lead, err := c.send(op.request(), classLeader)
		if err != nil {
			return err
		}
		req := op.request()
		req.Tenant = tenants[1-op.tenant]
		foll, err := c.send(req, classPair)
		if err != nil {
			return err
		}
		if err := ms.finish(c, lead, true); err != nil {
			return err
		}
		return ms.finish(c, foll, true)
	default:
		s, err := c.send(op.request(), op.class)
		if err != nil {
			return err
		}
		return ms.finish(c, s, true)
	}
}

// setupServer starts a server and runs one untimed warm-up job per chip.
func setupServer(dir string, workers int, ms *mixState) (*mixServer, error) {
	m, err := startServer(dir, workers)
	if err != nil {
		return nil, err
	}
	c := newClient(m.base)
	defer c.close()
	var subs []*subm
	for i, chip := range mixChips() {
		req := serve.Request{Chip: chip, Profile: "fast", Tenant: tenants[i%len(tenants)]}
		s, err := c.send(req, classLeader)
		if err != nil {
			m.stop()
			return nil, err
		}
		subs = append(subs, s)
	}
	for _, s := range subs {
		if err := ms.finish(c, s, false); err != nil {
			m.stop()
			return nil, err
		}
	}
	return m, nil
}

func newMixState() *mixState {
	return &mixState{
		leaderDigests: make(map[string]map[string][32]byte),
		leaderKeys:    make(map[string]int),
		correct:       true,
	}
}

func runServeMix(cfg config) (*result, error) {
	// Set up several times; the last server carries the measured phase.
	var setups []float64
	var m *mixServer
	var ms *mixState
	var ckptBytes, ckptEntries float64
	for i := 0; i < setupReps; i++ {
		if m != nil {
			m.stop()
			if err := os.RemoveAll(m.dir); err != nil {
				return nil, err
			}
		}
		ms = newMixState()
		t0 := time.Now()
		var err error
		m, err = setupServer(filepath.Join(cfg.workDir, fmt.Sprintf("server-%d", i)), cfg.workers, ms)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(t0)))
		if i == 0 {
			ckptBytes, ckptEntries, err = storeSize(m.store)
			if err != nil {
				m.stop()
				return nil, err
			}
		}
	}
	defer m.stop()
	warmups := float64(len(mixChips()))

	sched := newSchedule(cfg.seed)
	start := time.Now()
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
		taken int
	)
	take := func() (mixOp, bool) {
		errMu.Lock()
		defer errMu.Unlock()
		if first != nil || !cfg.more(start, taken) {
			return mixOp{}, false
		}
		taken++
		return sched.next(), true
	}
	for i := 0; i < mixClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(m.base)
			defer c.close()
			for {
				op, ok := take()
				if !ok {
					return
				}
				if err := ms.do(c, op); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if first != nil {
		return nil, first
	}

	// Exactly once: the server ran the pipeline once per distinct
	// computed identity, never for a hit or a follower.
	c := newClient(m.base)
	runs, err := fleetRuns(c)
	c.close()
	if err != nil {
		return nil, err
	}
	distinct := len(ms.leaderKeys)
	if runs != int64(distinct) {
		ms.violation("%d pipeline runs for %d distinct leader fingerprints", runs, distinct)
	}
	for key, n := range ms.leaderKeys {
		if n != 1 {
			ms.violation("%s computed %d times", key, n)
		}
	}

	if cfg.trace {
		return traceServeMix(cfg, m, ms, float64(runs), float64(distinct), ckptBytes/warmups, ckptEntries/warmups)
	}
	r := &result{Correct: ms.correct, Attempted: ms.attempted, Failed: ms.failed}
	r.set("setup_s", median(setups), "s")
	r.set("op_p50_s", median(ms.leaderLat), "s")
	r.set("op_p90_s", quantile(ms.leaderLat, 0.9), "s")
	r.set("ops_per_s", float64(ms.completed)/secs(elapsed), "1/s")
	r.set("peak_rss_mb", peakRSSMB(), "MiB")
	ms.fid.report(r)
	return r, nil
}

// storeSize sums the cache's entries: after the warm-up jobs these are
// the stage checkpoints and published artifacts of one job per chip.
func storeSize(st *ckpt.Store) (bytes, entries float64, err error) {
	list, err := st.Scan()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range list {
		bytes += float64(e.Bytes)
	}
	return bytes, float64(len(list)), nil
}

// serveWalkChip is the chip whose fast-profile extraction the serve-mix
// traced run walks layer by layer.
const serveWalkChip = "C4"

// fastOptions mirrors serve's "fast" profile: one SA unit, 8 nm voxels,
// 0.4 px drift and 8 denoise iterations per slice.
func fastOptions(workers int, pool *img.Pool) core.Options {
	o := core.DefaultOptions()
	o.Units = 1
	o.VoxelNM = 8
	o.SEM.DriftSigmaPx = 0.4
	o.Denoise.Iterations = 8
	o.Workers = workers
	o.Pool = pool
	return o
}

// traceServeMix reports the serve-side layers from the measured phase
// and attributes one fast job's time by walking its layers.
func traceServeMix(cfg config, m *mixServer, ms *mixState, runs, distinct, ckptBytes, ckptEntries float64) (*result, error) {
	r := newLayerResult()
	r.Correct, r.Attempted, r.Failed = ms.correct, ms.attempted, ms.failed
	r.setLayer("serve.submit_hit_p50_s", median(ms.hitSubmit))
	r.setLayer("serve.submit_p50_s", median(ms.freshSubmit))
	r.setLayer("serve.queue_wait_p50_s", median(ms.queueWait))
	r.setLayer("serve.run_p50_s", median(ms.run))
	r.setLayer("serve.cache_hit_pct", pct(float64(ms.hits), float64(ms.submitted)))
	r.setLayer("serve.follower_pct", pct(float64(ms.followers), float64(ms.submitted)))
	r.setLayer("serve.runs_per_leader", runs/distinct)
	r.setLayer("ckpt.bytes_per_job", ckptBytes)
	r.setLayer("ckpt.entries_per_job", ckptEntries)
	snap := m.srv.MetricsSnapshot()
	hits, misses := snap.Gauges["img.pool.hits"], snap.Gauges["img.pool.misses"]
	r.setLayer("img.pool.hit_pct", pct(hits, hits+misses))
	r.setLayer("img.pool.peak_live", snap.Gauges["img.pool.peak_live"])

	ctx := context.Background()
	chip := chips.ByID(serveWalkChip)
	// Each of the server's two concurrent jobs gets half the workers.
	o := fastOptions(max(1, cfg.workers/2), img.NewPool())
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := core.RunCtx(ctx, chip, o); err != nil {
			return nil, err
		}
		plain = append(plain, secs(time.Since(t0)))
		t0 = time.Now()
		res, err := tracedRun(ctx, chip, o)
		if err != nil {
			return nil, err
		}
		traced = append(traced, secs(time.Since(t0)))
		if i == 0 {
			setCounters(r, res)
		}
	}
	r.setLayer("obs.trace_overhead_pct", pct(median(traced)-median(plain), median(plain)))
	tr := newTracer()
	root := tr.start("walk "+chip.ID+" fast", 0, 0)
	err := walkLayers(ctx, tr, root, chip, o, r)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	setWalkTimes(r, tr)
	return r, writeTrace(tr, cfg)
}
