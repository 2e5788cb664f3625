package metrics

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux returns the sidecar observability mux both binaries mount on
// -pprof-addr: net/http/pprof under /debug/pprof/ and, when reg is
// non-nil, the registry exposition at /metrics. It is built on a private
// ServeMux (never http.DefaultServeMux) so importing this package cannot
// leak profiling handlers into a production listener by accident — the
// debug listener is its own address, bound to localhost unless the
// operator says otherwise.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	return mux
}

// ServeDebug serves DebugMux(reg) on addr until the listener fails. It has
// the serving port's header deadline; the long write window is for pprof
// profile and trace streams, which hold the response open for their
// -seconds argument (30s default).
func ServeDebug(addr string, reg *Registry) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           DebugMux(reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return srv.ListenAndServe()
}
