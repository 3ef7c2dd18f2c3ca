package metrics

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"pimzdtree/internal/obs"
)

// Admin HTTP surface: the scrape-able face of the registry plus JSON
// snapshots of live index state. Endpoints:
//
//	GET /metrics           Prometheus text exposition v0.0.4; names sorted,
//	                       deterministic. ?modeled=1 drops wall-clock
//	                       families so the output is byte-identical across
//	                       identical runs (what CI golden-tests).
//	GET /healthz           "ok" once the configured health check passes.
//	GET /readyz            "ok" once the configured readiness check
//	                       passes (503 while the server is still loading
//	                       or no longer accepting); liveness stays on
//	                       /healthz so probes can distinguish the two.
//	GET /snapshot/tree     JSON structural snapshot of the served tree.
//	GET /snapshot/modules  JSON per-module cumulative load heatmap with
//	                       p50/p99/max/mean cycles+bytes and the Fig. 7
//	                       imbalance factor.
//	GET /snapshot/flightrecorder  JSON flight-recorder dump: the ring of
//	                       recent per-op records plus the slow-op set.
//	GET /snapshot/slowops  JSON slow-op records only (full round detail).
//	GET /snapshot/slo      JSON SLO status: rolling 1m/5m/1h error rates
//	                       and burn rates per latency objective.
//	GET /debug/pprof/*     Go runtime profiles.
//	GET /                  plain-text endpoint index.
//
// /metrics also accepts ?exemplars=1 to render OpenMetrics exemplars
// (trace IDs of recent slow ops) on histogram bucket lines.

// AdminConfig wires the server to its data sources. Any source may be nil:
// the corresponding endpoint then reports 404 (snapshots) or stays
// healthy-by-default (Health).
type AdminConfig struct {
	// Registry backs /metrics.
	Registry *Registry
	// TreeStats returns a JSON-marshalable structural snapshot of the
	// served index (e.g. core.Tree.Stats()).
	TreeStats func() any
	// ModuleLoads returns the cumulative per-module cycle and byte loads
	// (pim.System.ModuleLoads) backing /snapshot/modules.
	ModuleLoads func() (cycles, bytes []int64)
	// Flight backs /snapshot/flightrecorder and /snapshot/slowops.
	Flight *obs.FlightRecorder
	// Health returns nil when the server should report healthy.
	Health func() error
	// Ready returns nil when the server is ready to take traffic
	// (/readyz). Distinct from Health: a server warming its index is
	// alive but not ready. Nil falls back to Health.
	Ready func() error
	// SLO backs /snapshot/slo.
	SLO *SLOTracker
	// Extra mounts additional handlers on the admin mux, pattern ->
	// handler (http.ServeMux patterns). The serving engine uses this to
	// expose its client API (/v1/*) on the same listener without this
	// package importing it.
	Extra map[string]http.Handler
}

// ModuleSnapshot is the /snapshot/modules response.
type ModuleSnapshot struct {
	P         int      `json:"p"`
	Active    int      `json:"active"` // modules with any load so far
	Cycles    obs.Dist `json:"cycles"` // distribution over active modules
	Bytes     obs.Dist `json:"bytes"`
	Imbalance float64  `json:"imbalance"`
	// Dense per-module vectors (index = module id), the heatmap proper.
	CyclesPerModule []int64 `json:"cycles_per_module"`
	BytesPerModule  []int64 `json:"bytes_per_module"`
}

// NewAdminHandler builds the admin mux.
func NewAdminHandler(cfg AdminConfig) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "pimzd admin endpoints:\n"+
			"  /metrics                   Prometheus text exposition (?modeled=1 deterministic subset, ?exemplars=1 trace exemplars)\n"+
			"  /healthz                   liveness probe\n"+
			"  /readyz                    readiness probe (503 until serving)\n"+
			"  /snapshot/tree             JSON tree statistics\n"+
			"  /snapshot/modules          JSON per-module load heatmap\n"+
			"  /snapshot/flightrecorder   JSON per-op flight-recorder dump\n"+
			"  /snapshot/slowops          JSON slow-op records (full round detail)\n"+
			"  /snapshot/slo              JSON SLO burn-rate status\n"+
			"  /debug/pprof/              Go runtime profiles\n")
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				http.Error(w, fmt.Sprintf("unhealthy: %v", err), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		check := cfg.Ready
		if check == nil {
			check = cfg.Health
		}
		if check != nil {
			if err := check(); err != nil {
				http.Error(w, fmt.Sprintf("not ready: %v", err), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/snapshot/slo", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.SLO.Enabled() {
			http.Error(w, "slo tracking not enabled", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.SLO.Snapshot())
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.Error(w, "no registry", http.StatusNotFound)
			return
		}
		opts := ExpoOpts{
			ModeledOnly: r.URL.Query().Get("modeled") == "1",
			Exemplars:   r.URL.Query().Get("exemplars") == "1",
		}
		w.Header().Set("Content-Type", ContentType)
		if err := cfg.Registry.WriteTextOpts(w, opts); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: write: %v\n", err)
		}
	})

	mux.HandleFunc("/snapshot/tree", func(w http.ResponseWriter, r *http.Request) {
		if cfg.TreeStats == nil {
			http.Error(w, "no tree attached", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.TreeStats())
	})

	mux.HandleFunc("/snapshot/modules", func(w http.ResponseWriter, r *http.Request) {
		if cfg.ModuleLoads == nil {
			http.Error(w, "module load accounting not enabled", http.StatusNotFound)
			return
		}
		cycles, bytes := cfg.ModuleLoads()
		writeJSON(w, NewModuleSnapshot(cycles, bytes))
	})

	mux.HandleFunc("/snapshot/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.Flight.Enabled() {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Flight.Snapshot())
	})

	mux.HandleFunc("/snapshot/slowops", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.Flight.Enabled() {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Flight.SlowOps())
	})

	for pattern, h := range cfg.Extra {
		mux.Handle(pattern, h)
	}

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// NewModuleSnapshot summarizes dense per-module load vectors into the
// heatmap response: distributions are computed over active modules only
// (obs.NewLoadProfile semantics), the dense vectors are returned verbatim.
func NewModuleSnapshot(cycles, bytes []int64) ModuleSnapshot {
	var activeCycles, activeBytes []int64
	for i := range cycles {
		if cycles[i] != 0 || bytes[i] != 0 {
			activeCycles = append(activeCycles, cycles[i])
			activeBytes = append(activeBytes, bytes[i])
		}
	}
	p := obs.NewLoadProfile(activeCycles, activeBytes)
	return ModuleSnapshot{
		P:               len(cycles),
		Active:          p.Active,
		Cycles:          p.Cycles,
		Bytes:           p.Bytes,
		Imbalance:       p.Imbalance,
		CyclesPerModule: cycles,
		BytesPerModule:  bytes,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteDump(w, v); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: snapshot: %v\n", err)
	}
}

// AdminServer is a running admin endpoint.
type AdminServer struct {
	l   net.Listener
	srv *http.Server
}

// StartAdmin binds addr (":0" for an ephemeral port) and serves the admin
// mux from a background goroutine.
func StartAdmin(addr string, cfg AdminConfig) (*AdminServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewAdminHandler(cfg)}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "admin: %v\n", err)
		}
	}()
	return &AdminServer{l: l, srv: srv}, nil
}

// Addr returns the bound address (host:port).
func (s *AdminServer) Addr() string { return s.l.Addr().String() }

// Close stops the server immediately, dropping in-flight requests.
func (s *AdminServer) Close() error { return s.srv.Close() }

// Shutdown drains the server gracefully: in-flight requests get until the
// deadline to finish, then the server closes hard.
func (s *AdminServer) Shutdown(deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
