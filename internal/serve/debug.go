package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// DebugMux builds a dedicated mux for the pprof debug endpoints plus
// /metrics, which renders the registry m in the same Prometheus text
// exposition the serve API uses. A dedicated mux — never
// http.DefaultServeMux — so that package-level http.Handle registrations
// elsewhere in the process (or a future dependency's init) can never
// leak onto the diagnostics port.
func DebugMux(m *obs.Metrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeMetrics(w, m.Snapshot())
	})
	return mux
}

// NewDebugServer wraps DebugMux in an http.Server with explicit
// timeouts, replacing the bare http.ListenAndServe(addr, nil) idiom
// (which serves the global DefaultServeMux with no timeouts at all).
// WriteTimeout stays 0: /debug/pprof/profile and /debug/pprof/trace
// stream for a caller-chosen number of seconds, and a fixed write
// deadline would truncate long captures. Header/read/idle timeouts
// still bound slow or stalled clients.
func NewDebugServer(addr string, m *obs.Metrics) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           DebugMux(m),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
