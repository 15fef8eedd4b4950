// Package serve turns the reconstruction pipeline into a job service:
// an HTTP/JSON API accepts chip/profile submissions, a bounded FIFO
// queue feeds a worker pool of supervised pipeline campaigns, and a
// shared content-addressed cache (the checkpoint store, keyed by the
// same options fingerprint the netex checkpoint uses) dedupes
// identical submissions down to a single computation — whether they
// arrive concurrently (in-flight leader/follower attachment) or hours
// apart (artifact cache hit).
//
// Endpoints:
//
//	POST /v1/jobs                         submit   {chip, profile, ...} -> JobStatus
//	GET  /v1/jobs                         list all jobs
//	GET  /v1/jobs/{id}                    poll one job
//	POST /v1/jobs/{id}/cancel             cancel (queued or running)
//	GET  /v1/jobs/{id}/events?from=N      NDJSON progress stream
//	GET  /v1/jobs/{id}/artifacts/{name}   fetch report.json / extracted.gds / views/<layer>.pgm
//	GET  /healthz                         liveness + queue stats
//	GET  /readyz                          readiness (503 until journal recovery completes)
//	GET  /metrics                         Prometheus text exposition of the fleet registry
//
// Every request carries a request ID: the sanitized X-Request-Id header
// when the client sent one, a server-minted ID otherwise. The ID is
// echoed in the response header, logged on the access line, and — for
// submissions — becomes the job's correlation ID, which then appears in
// the lifecycle log lines, the journal's accept record, the job's trace
// and JobStatus. One grep joins everything a request touched.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// NewMux builds the API routing for a server, wrapped in the
// request-ID / access-log middleware.
func NewMux(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name...}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withRequestID(mux)
}

// reqIDKey carries the request ID through the request context.
type reqIDKey struct{}

// RequestID returns the request's ID ("" outside the middleware).
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// reqSeq numbers server-minted request IDs process-wide.
var reqSeq atomic.Uint64

// reqEpoch distinguishes processes, so IDs stay unique across restarts
// sharing a log stream.
var reqEpoch = time.Now().UnixNano()

// newRequestID mints a process-unique request ID.
func newRequestID() string {
	return fmt.Sprintf("req-%x-%06d", reqEpoch, reqSeq.Add(1))
}

// statusWriter captures the response code for the access log. It
// implements http.Flusher unconditionally, delegating when the
// underlying writer supports it, so the events stream keeps flushing
// through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestID is the access middleware: it resolves the request ID
// (honoring a sanitized client X-Request-Id), echoes it in the
// response, threads it through the context for handlers, and writes
// one structured access-log line per request.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeLabelValue(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.cfg.Obs.Info("serve: http", "req_id", id, "method", r.Method,
			"path", r.URL.Path, "status", code,
			"dur_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

// NewHTTPServer wraps the API mux in an http.Server with explicit
// timeouts. WriteTimeout stays 0 because the events endpoint streams
// for a job's whole lifetime; slowloris protection comes from
// ReadHeaderTimeout instead.
func NewHTTPServer(addr string, s *Server) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           NewMux(s),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// deadlineHeader carries a client job deadline in milliseconds as an
// alternative to the request body's deadline_ms field; the body wins
// when both are set.
const deadlineHeader = "X-Job-Deadline-Ms"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if h := r.Header.Get(deadlineHeader); h != "" && req.DeadlineMS == 0 {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s header %q", deadlineHeader, h))
			return
		}
		req.DeadlineMS = ms
	}
	st, err := s.SubmitCorr(req, RequestID(r))
	var limit *TenantLimitError
	switch {
	case errors.As(err, &limit):
		// Per-tenant limit: 429, distinct from the global 503 — only
		// this tenant needs to back off.
		w.Header().Set("Retry-After", strconv.Itoa(limit.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrNotReady):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShed):
		// The honest hint: backlog over drain rate, not a constant.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDiskFull):
		// 507: not the client's fault and not load — space. Retry once
		// GC (or an operator) has freed some.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterFallback))
		writeError(w, http.StatusInsufficientStorage, err)
		return
	case errors.Is(err, ErrClosed), errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
		return
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		// Unknown failure: the server's fault until classified. 500, not
		// a blanket 400/503 — clients must not be told to fix a request
		// that was fine or retry an error that isn't transient.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// A cache hit (result or failure) is complete at submit time; report
	// it as 200 rather than 202 so scripted clients can skip the poll
	// loop entirely.
	code := http.StatusAccepted
	if st.State.terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	data, err := s.Artifact(id, name)
	if err != nil {
		code := http.StatusNotFound
		if st, ok := s.Status(id); ok && st.State != StateDone {
			// Job exists but isn't finished: the client should poll
			// (or inspect the failure), not give up on the ID.
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", artifactContentType(name))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func artifactContentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "application/json"
	case strings.HasSuffix(name, ".pgm"):
		return "image/x-portable-graymap"
	default:
		return "application/octet-stream"
	}
}

// keepaliveFrame is the NDJSON record the events stream emits on an
// idle connection. It deliberately has no "seq" field: keepalives are
// transport liveness, not job history — they never enter the event
// log, so ?from=N resume cursors are unaffected and a client telling
// events apart by the presence of "seq" (or "keepalive") skips them.
type keepaliveFrame struct {
	Keepalive bool      `json:"keepalive"`
	Time      time.Time `json:"time"`
}

// defaultEventKeepalive is the idle interval before a keepalive frame;
// only tests shorten it (Config.eventKeepalive).
const defaultEventKeepalive = 15 * time.Second

// handleEvents streams the job's event log as NDJSON: a replay of
// everything from ?from=N (default 0), then live events until the job
// reaches a terminal state or the client disconnects. While the job is
// quiet the stream emits keepalive frames so proxies and clients can
// tell an idle job from a dead connection.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			// A negative cursor is a client bug, not "replay from 0":
			// reject it loudly instead of silently clamping.
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q: must be a non-negative integer", q))
			return
		}
		from = n
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ka := s.cfg.eventKeepalive
	if ka <= 0 {
		ka = defaultEventKeepalive
	}
	timer := time.NewTimer(ka)
	defer timer.Stop()
	resetKA := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(ka)
	}
	for {
		events, next, ok := s.Events(id, from)
		if !ok {
			return // job unknown: the pre-status check raced a restart
		}
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
			from = ev.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		if len(events) > 0 {
			resetKA() // real traffic restarts the idle clock
		}
		if next == nil {
			return // terminal and fully replayed
		}
		select {
		case <-next:
		case <-timer.C:
			if err := enc.Encode(keepaliveFrame{Keepalive: true, Time: time.Now()}); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			timer.Reset(ka)
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// readiness is the /readyz body.
type readiness struct {
	Ready     bool `json:"ready"`
	Recovered int  `json:"recovered"`
}

// handleReady reports readiness: 200 once Start has replayed the
// journal and opened the worker pool, 503 before that and after Close
// begins. Distinct from /healthz (liveness): a recovering server is
// alive but must not receive traffic yet.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	body := readiness{Ready: s.Ready(), Recovered: s.Recovered()}
	code := http.StatusOK
	if !body.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleMetrics serves the fleet registry as Prometheus text
// exposition: counters and duration histograms from the registry, plus
// scrape-time gauges (queue state, per-tenant in-flight, readiness) and
// the SLO tracker's error-budget and burn-rate gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeMetrics(w, s.MetricsSnapshot())
}

// writeMetrics renders a snapshot as a /metrics response.
func writeMetrics(w http.ResponseWriter, snap *obs.Snapshot) {
	w.Header().Set("Content-Type", obs.ContentTypeProm)
	_ = obs.WriteProm(w, snap)
}

// health is the /healthz body.
type health struct {
	OK         bool  `json:"ok"`
	Ready      bool  `json:"ready"`
	Jobs       int   `json:"jobs"`
	Queued     int   `json:"queued"`
	Running    int   `json:"running"`
	QueueDepth int   `json:"queue_depth"`
	CacheHits  int64 `json:"cache_hits"`
	Runs       int64 `json:"runs"`
	// Journal reports whether the write-ahead job journal is enabled,
	// Recovered how many journaled jobs were re-enqueued at startup.
	Journal   bool `json:"journal"`
	Recovered int  `json:"recovered"`
	// TenantRejected counts per-tenant 429s; GCEvictedBytes the bytes
	// freed by cache sweeps over this server's lifetime.
	TenantRejected int64 `json:"tenant_rejected"`
	GCEvictedBytes int64 `json:"gc_evicted_bytes"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	ready := s.Ready()
	s.mu.Lock()
	h := health{
		OK: true, Ready: ready, Jobs: len(s.jobs), QueueDepth: s.cfg.QueueDepth,
		Journal: s.journal != nil, Recovered: s.recovered,
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			h.Queued++
		case StateRunning:
			h.Running++
		}
	}
	s.mu.Unlock()
	if snap := s.FleetSnapshot(); snap != nil {
		h.CacheHits = snap.Counters["serve.cache_hits"]
		h.Runs = snap.Counters["serve.runs"]
		h.TenantRejected = snap.Counters["serve.tenant_rejected"]
		h.GCEvictedBytes = snap.Counters["serve.gc_evicted_bytes"]
	}
	writeJSON(w, http.StatusOK, h)
}
