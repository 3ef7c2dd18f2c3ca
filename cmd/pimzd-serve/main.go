// Command pimzd-serve runs a PIM-zd-tree (or a baseline tree) as a
// long-lived concurrent service. All index access flows through the
// epoch-pipelined serving engine (internal/serve): concurrent client
// requests land in sharded intake queues, a builder coalesces them into
// the tree's native batch ops, and an executor runs read epochs against
// the stable published root while the next update epoch forms behind
// them. The optional built-in synthetic workload (-ops) is just another
// client of the same engine.
//
// Client APIs:
//
//	POST /v1/{search,insert,delete,knn,box}   HTTP/JSON (admin listener)
//	GET  /v1/status                           engine snapshot
//	-tcp host:port                            length-prefixed binary frames
//	                                          (see internal/serve wire.go)
//
// Admin/observability endpoints (same listener as /v1):
//
//	/metrics                  Prometheus text exposition v0.0.4: modeled
//	                          tree counters plus Wall-marked serving
//	                          families — per-request latency and per-stage
//	                          histograms, intake queue depth, epoch
//	                          occupancy, shed counters, SLO burn rates
//	                          (?modeled=1 for the deterministic subset,
//	                          ?exemplars=1 for trace exemplars)
//	/healthz                  liveness probe (ok as soon as the admin
//	                          listener is up, even while warming)
//	/readyz                   readiness probe (503 until the warmup build
//	                          published and the engine accepts requests;
//	                          503 again once shutdown begins)
//	/snapshot/tree            JSON structural tree statistics
//	/snapshot/modules         JSON per-module cumulative load heatmap
//	                          (with -trees S: S racks concatenated in
//	                          shard order)
//	/snapshot/shards          JSON per-shard layout, load windows and
//	                          migration counters (-trees > 1 only)
//	/snapshot/flightrecorder  JSON per-op flight-recorder dump
//	/snapshot/slowops         JSON slow-op records with full round detail
//	/snapshot/slowrequests    JSON slow-request capture: per-request stage
//	                          decomposition, flight trace IDs, cross-shard
//	                          fan-out spans (feed to
//	                          `pimzd-trace analyze -requests`)
//	/snapshot/slo             JSON SLO status: rolling 1m/5m/1h error and
//	                          burn rates per latency objective
//	/debug/pprof/             Go runtime profiles
//
// SIGINT/SIGTERM shut the server down gracefully: intake closes (new
// requests get 503 / shutdown frames), admitted requests drain until
// -drain-timeout, anything still pending past the deadline completes
// with an explicit 503 instead of hanging, client connections drain,
// the final flight-recorder dump flushes to -flight-out, and the admin
// server drains last.
//
// Usage:
//
//	pimzd-serve -addr 127.0.0.1:8585 -dataset osm -n 400000 -batch 10000
//	pimzd-serve -addr 127.0.0.1:0 -port-file /tmp/port -tcp 127.0.0.1:0 -tcp-port-file /tmp/tcp
//	pimzd-serve -engine zd -n 100000            # shared-memory baseline
//	pimzd-serve -mode fifo                      # no-coalescing baseline scheduler
//	pimzd-serve -trees 8 -p 256                 # Morton-prefix sharding: 8 trees x 256 modules

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pkdtree"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
	"pimzdtree/internal/zdtree"
)

// baselineBackend adapts the CPU baseline trees (zd, pkd) to the serving
// engine's Backend interface. The epoch counter mirrors core.Tree's
// publication protocol: one bump per applied update batch.
type baselineBackend struct {
	dims   uint8
	search func(p geom.Point) bool
	insert func(pts []geom.Point)
	remove func(pts []geom.Point)
	knn    func(pts []geom.Point, k int) [][]core.Neighbor
	box    func(boxes []geom.Box) []int64
	epoch  atomic.Uint64
}

func (b *baselineBackend) Dims() uint8 { return b.dims }
func (b *baselineBackend) SearchBatch(pts []geom.Point) []bool {
	found := make([]bool, len(pts))
	for i, p := range pts {
		found[i] = b.search(p)
	}
	return found
}
func (b *baselineBackend) InsertBatch(pts []geom.Point) { b.insert(pts); b.epoch.Add(1) }
func (b *baselineBackend) DeleteBatch(pts []geom.Point) { b.remove(pts); b.epoch.Add(1) }
func (b *baselineBackend) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	return b.knn(pts, k)
}
func (b *baselineBackend) BoxCountBatch(boxes []geom.Box) []int64 { return b.box(boxes) }
func (b *baselineBackend) Epoch() uint64                          { return b.epoch.Load() }

// lockedBackend serializes backend batches with the admin stats snapshot:
// the engine executor is the only batch caller, but /snapshot/tree walks
// tree internals that update batches mutate, so both take this lock. The
// lock is uncontended on the hot path.
type lockedBackend struct {
	mu sync.Mutex
	b  serve.Backend
}

func (l *lockedBackend) Dims() uint8 { return l.b.Dims() }
func (l *lockedBackend) SearchBatch(pts []geom.Point) []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.SearchBatch(pts)
}
func (l *lockedBackend) InsertBatch(pts []geom.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.InsertBatch(pts)
}
func (l *lockedBackend) DeleteBatch(pts []geom.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.DeleteBatch(pts)
}
func (l *lockedBackend) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.KNNBatch(pts, k)
}
func (l *lockedBackend) BoxCountBatch(boxes []geom.Box) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.BoxCountBatch(boxes)
}
func (l *lockedBackend) Epoch() uint64 { return l.b.Epoch() }

// fanoutBackend is a lockedBackend whose inner backend reports fan-out;
// it forwards TakeFanout so the engine's FanoutSource type-assertion sees
// the capability through the locking wrapper. (The inner index serializes
// TakeFanout itself, and the engine calls it from the same executor
// goroutine that just ran the batch, so the snapshot lock is not needed.)
type fanoutBackend struct {
	*lockedBackend
	fs serve.FanoutSource
}

func (l *fanoutBackend) TakeFanout() *obs.FanoutReport { return l.fs.TakeFanout() }

// lazyHandler answers 503 until the real handler is published — the admin
// listener comes up before the warmup build so probes can watch it.
type lazyHandler struct{ h atomic.Pointer[http.Handler] }

func (l *lazyHandler) set(h http.Handler) { l.h.Store(&h) }
func (l *lazyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hp := l.h.Load(); hp != nil {
		(*hp).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "warming up", http.StatusServiceUnavailable)
}

// parseSLO parses "op=millis:target,..." into SLO objectives.
func parseSLO(spec string) ([]metrics.SLOObjective, error) {
	if spec == "" {
		return nil, nil
	}
	var objs []metrics.SLOObjective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want op=millis:target", part)
		}
		ms, tgt, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("%q: want op=millis:target", part)
		}
		lat, err := strconv.ParseFloat(ms, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: bad millis: %v", part, err)
		}
		target, err := strconv.ParseFloat(tgt, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: bad target: %v", part, err)
		}
		objs = append(objs, metrics.SLOObjective{
			Op: strings.TrimSpace(op), LatencySeconds: lat / 1e3, Target: target,
		})
	}
	return objs, nil
}

// builtIndex is one constructed tree plus its admin hooks.
type builtIndex struct {
	backend     serve.Backend
	stats       func() any
	moduleLoads func() (cycles, bytes []int64) // nil for baselines
	shards      *shard.Index                   // nil unless -trees > 1
}

func buildIndex(kind string, trees int, dims uint8, p int, tuning core.Tuning, rec *obs.Recorder, warm []geom.Point) builtIndex {
	if trees > 1 && kind != "pim" {
		fmt.Fprintf(os.Stderr, "-trees %d requires -engine pim\n", trees)
		os.Exit(2)
	}
	switch kind {
	case "pim":
		machine := costmodel.UPMEMServer()
		machine.PIMModules = p
		if trees > 1 {
			x := shard.New(shard.Config{
				Trees: trees, Dims: dims, Machine: machine, Tuning: tuning,
				Obs: rec, LoadStats: true, Rebalance: true,
			}, warm)
			return builtIndex{
				backend:     x,
				stats:       func() any { return x.Stats() },
				moduleLoads: x.ModuleLoads,
				shards:      x,
			}
		}
		t := core.New(core.Config{
			Dims: dims, Machine: machine, Tuning: tuning,
			Obs: rec, LoadStats: true,
		}, warm)
		return builtIndex{
			backend:     serve.NewTreeBackend(t),
			stats:       func() any { return t.Stats() },
			moduleLoads: t.System().ModuleLoads,
		}
	case "zd":
		t := zdtree.New(zdtree.Config{Dims: dims, Obs: rec}, warm)
		return builtIndex{
			backend: &baselineBackend{
				dims:   dims,
				search: t.Contains,
				insert: t.Insert,
				remove: t.Delete,
				knn: func(pts []geom.Point, k int) [][]core.Neighbor {
					return convertNeighbors(len(pts), func(i int) []core.Neighbor {
						return zdNeighbors(t.KNN(pts[i], k, geom.L2))
					})
				},
				box: func(boxes []geom.Box) []int64 { return toInt64(t.BoxCountBatch(boxes)) },
			},
			stats: func() any { return t.Stats() },
		}
	case "pkd":
		t := pkdtree.New(pkdtree.Config{Dims: dims, Obs: rec}, warm)
		return builtIndex{
			backend: &baselineBackend{
				dims:   dims,
				search: t.Contains,
				insert: t.Insert,
				remove: t.Delete,
				knn: func(pts []geom.Point, k int) [][]core.Neighbor {
					return convertNeighbors(len(pts), func(i int) []core.Neighbor {
						return pkdNeighbors(t.KNN(pts[i], k, geom.L2))
					})
				},
				box: func(boxes []geom.Box) []int64 { return toInt64(t.BoxCountBatch(boxes)) },
			},
			stats: func() any { return t.Stats() },
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q (pim, zd, pkd)\n", kind)
		os.Exit(2)
		panic("unreachable")
	}
}

func convertNeighbors(n int, per func(i int) []core.Neighbor) [][]core.Neighbor {
	out := make([][]core.Neighbor, n)
	for i := range out {
		out[i] = per(i)
	}
	return out
}

func zdNeighbors(in []zdtree.Neighbor) []core.Neighbor {
	out := make([]core.Neighbor, len(in))
	for i, nb := range in {
		out[i] = core.Neighbor{Point: nb.Point, Dist: nb.Dist}
	}
	return out
}

func pkdNeighbors(in []pkdtree.Neighbor) []core.Neighbor {
	out := make([]core.Neighbor, len(in))
	for i, nb := range in {
		out[i] = core.Neighbor{Point: nb.Point, Dist: nb.Dist}
	}
	return out
}

func toInt64(in []int) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = int64(v)
	}
	return out
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8585", "admin+client HTTP address (host:0 for an ephemeral port)")
		portFile    = flag.String("port-file", "", "write the bound admin address to this file once listening")
		tcpAddr     = flag.String("tcp", "", "binary wire-protocol TCP listener address (empty = disabled)")
		tcpPortFile = flag.String("tcp-port-file", "", "write the bound TCP address to this file once listening")
		engName     = flag.String("engine", "pim", "tree engine: pim, zd, pkd")
		dataset     = flag.String("dataset", "uniform", "workload: uniform, cosmos, osm")
		n           = flag.Int("n", 200_000, "warmup points")
		batch       = flag.Int("batch", 5_000, "operations per synthetic workload batch")
		modules     = flag.Int("p", 512, "PIM modules per tree (pim engine)")
		trees       = flag.Int("trees", 1, "Morton-prefix shards: partition the key space across this many parallel trees, each on its own simulated rack (pim engine; 1 = single tree)")
		dims        = flag.Int("dims", 3, "point dimensionality (2-4)")
		seed        = flag.Int64("seed", 42, "workload seed")
		tuning      = flag.String("tuning", "throughput", "tuning: throughput or skew (pim engine)")
		k           = flag.Int("k", 8, "k for knn batches")
		sample      = flag.Int("sample", 32, "snapshot module loads every N rounds (0 = off)")
		opsMix      = flag.String("ops", "search,insert,knn,box,delete", "comma-separated synthetic batch mix, cycled in order (empty = serve clients only)")
		iters       = flag.Int("iters", 0, "stop the synthetic workload after this many batches (0 = no limit)")
		duration    = flag.Duration("duration", 0, "exit after this long (0 = run until killed)")
		pause       = flag.Duration("pause", 0, "sleep between synthetic batches")

		mode     = flag.String("mode", "pipeline", "serving scheduler: pipeline (epoch coalescing) or fifo (per-request baseline)")
		shards   = flag.Int("shards", 0, "intake queue shards (0 = GOMAXPROCS)")
		queueOps = flag.Int64("queue", 0, "admission control: max queued point-ops (0 = default)")
		maxBatch = flag.Int("max-batch", 0, "max point-ops per coalesced tree batch (0 = default)")

		flightRing   = flag.Int("flight", 256, "flight-recorder ring capacity in ops (0 disables per-op tracing)")
		slowMs       = flag.Float64("slow-ms", 0, "capture ops whose wall time reaches this many milliseconds (0 = top-K by latency)")
		slowModeled  = flag.Float64("slow-modeled-us", 0, "capture ops whose modeled time reaches this many microseconds")
		slowK        = flag.Int("slow-k", 16, "retained slow-op records")
		flightOut    = flag.String("flight-out", "", "write the final flight-recorder dump (JSON) to this file on exit")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful drain deadline on shutdown (engine, TCP, admin each)")

		reqSlowMs   = flag.Float64("req-slow-ms", 0, "capture requests whose total wall time reaches this many milliseconds (0 = top-K by latency)")
		reqSlowK    = flag.Int("req-slow-k", 16, "retained slow-request records (0 disables slow-request capture)")
		requestsOut = flag.String("requests-out", "", "write the final slow-request dump (JSON) to this file on exit")
		sloSpec     = flag.String("slo", "search=50:0.99,insert=50:0.99,delete=50:0.99,knn=100:0.99,box=100:0.99",
			"latency SLOs as op=millis:target, comma-separated (empty disables SLO tracking)")
		fanoutOn = flag.Bool("fanout", true, "capture per-request cross-shard fan-out spans (-trees > 1)")
	)
	flag.Parse()

	tun := core.ThroughputOptimized
	switch *tuning {
	case "throughput":
	case "skew":
		tun = core.SkewResistant
	default:
		fmt.Fprintf(os.Stderr, "unknown tuning %q\n", *tuning)
		os.Exit(2)
	}
	var ds workload.Dataset
	switch *dataset {
	case "uniform":
		ds = workload.DatasetUniform
	case "cosmos":
		ds = workload.DatasetCosmos
	case "osm":
		ds = workload.DatasetOSM
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	var schedMode serve.Mode
	switch *mode {
	case "pipeline":
		schedMode = serve.ModePipeline
	case "fifo":
		schedMode = serve.ModeFIFO
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (pipeline, fifo)\n", *mode)
		os.Exit(2)
	}

	// Live metrics plumbing: a retention-free recorder streams every
	// event into the registry and stores nothing, so the server can run
	// indefinitely.
	reg := metrics.New()
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(reg))
	rec.SetModuleSampling(*sample)
	var fr *obs.FlightRecorder
	if *flightRing > 0 {
		fr = obs.NewFlightRecorder(obs.FlightConfig{
			Ring:               *flightRing,
			SlowWallSeconds:    *slowMs / 1e3,
			SlowModeledSeconds: *slowModeled / 1e6,
			SlowK:              *slowK,
		})
		rec.SetFlight(fr)
	}
	// Request-lifecycle tracing and SLO burn-rate tracking.
	var reqTracer *serve.RequestTracer
	if *reqSlowK > 0 {
		reqTracer = serve.NewRequestTracer(serve.RequestTraceConfig{
			SlowWallSeconds: *reqSlowMs / 1e3,
			SlowK:           *reqSlowK,
		})
	}
	objectives, err := parseSLO(*sloSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-serve: -slo: %v\n", err)
		os.Exit(2)
	}
	var slo *metrics.SLOTracker
	if len(objectives) > 0 {
		slo = metrics.NewSLOTracker(metrics.SLOConfig{Objectives: objectives, Registry: reg})
	}

	// The high-range wall bucket ladder keeps saturated-queue latencies
	// (seconds to minutes) resolvable instead of collapsing into +Inf.
	wallSeconds := reg.NewHistogramVec(metrics.HistogramOpts{Opts: metrics.Opts{
		Name: "pimzd_batch_wall_seconds",
		Help: "Wall-clock time per synthetic workload batch (real time, not modeled).",
		Wall: true, Label: "op"}, Buckets: metrics.WallSecondsBuckets()})
	uptime := reg.NewGauge(metrics.Opts{Name: "pimzd_uptime_seconds",
		Help: "Wall-clock seconds since the server started.", Wall: true})
	procUptime := reg.NewCounter(metrics.Opts{Name: "pimzd_process_uptime_seconds",
		Help: "Wall-clock seconds the process has been up (monotone).", Wall: true})
	buildInfo := reg.NewLabeledGauge(metrics.Opts{Name: "pimzd_build_info",
		Help: "Build and configuration identity (value is always 1).", Wall: true},
		[]string{"go_version", "engine", "trees"},
		[]string{runtime.Version(), *engName, strconv.Itoa(*trees)})
	buildInfo.Set(1)

	// The admin listener comes up before the warmup build: /healthz
	// answers immediately (the process is alive), /readyz and the lazy
	// API handlers answer 503 until the index is published, so probes and
	// load generators can poll instead of retrying connection errors.
	var ready atomic.Bool
	var engPtr atomic.Pointer[serve.Engine]

	// idx and locked are written before ready.Store(true); every admin
	// read is gated on ready.Load(), which orders the accesses.
	var idx builtIndex
	var locked *lockedBackend

	apiH := &lazyHandler{}
	extra := map[string]http.Handler{"/v1/": apiH}
	shardsH := &lazyHandler{}
	if *trees > 1 {
		extra["/snapshot/shards"] = shardsH
	}
	extra["/snapshot/slowrequests"] = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if !reqTracer.Enabled() {
			http.Error(w, "slow-request capture not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteDump(w, reqTracer.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-serve: slowrequests: %v\n", err)
		}
	})

	srv, err := metrics.StartAdmin(*addr, metrics.AdminConfig{
		Registry: reg,
		TreeStats: func() any {
			if !ready.Load() {
				return struct{}{}
			}
			locked.mu.Lock()
			defer locked.mu.Unlock()
			return idx.stats()
		},
		ModuleLoads: func() (cycles, bytes []int64) {
			if !ready.Load() || idx.moduleLoads == nil {
				return nil, nil
			}
			return idx.moduleLoads()
		},
		Flight: fr,
		SLO:    slo,
		Health: func() error { return nil }, // alive once listening
		Ready: func() error {
			if !ready.Load() {
				return fmt.Errorf("warmup build not published")
			}
			if e := engPtr.Load(); e == nil || e.Stats().ShuttingDown {
				return fmt.Errorf("engine not accepting requests")
			}
			return nil
		},
		Extra: extra,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-serve: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("pimzd-serve: admin+api on http://%s (engine=%s mode=%s dataset=%s n=%d batch=%d)\n",
		srv.Addr(), *engName, schedMode, *dataset, *n, *batch)
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-serve: port-file: %v\n", err)
			os.Exit(1)
		}
	}

	// Build the index, then put the serving engine in front of it: from
	// here on the engine's executor goroutine is the only tree caller.
	pool := ds.Generate(*seed, *n+8**batch, uint8(*dims))
	warm := pool[:*n]
	stream := pool[*n:]
	idx = buildIndex(*engName, *trees, uint8(*dims), *modules, tun, rec, warm)
	locked = &lockedBackend{b: idx.backend}
	var backend serve.Backend = locked
	if idx.shards != nil && *fanoutOn {
		idx.shards.SetFanoutCapture(true)
		backend = &fanoutBackend{lockedBackend: locked, fs: idx.shards}
	}
	eng := serve.New(serve.Config{
		Backend:      backend,
		Mode:         schedMode,
		Shards:       *shards,
		MaxQueuedOps: *queueOps,
		MaxBatch:     *maxBatch,
		MaxK:         max(128, *k),
		Registry:     reg,
		Flight:       fr,
		Requests:     reqTracer,
		SLO:          slo,
	})
	engPtr.Store(eng)
	apiH.set(serve.NewHTTPHandler(eng))

	// Per-shard metrics families and the /snapshot/shards layout snapshot
	// (sharded runs only; with -trees 1 the exposition is byte-identical
	// to the unsharded server). Wall-marked: the values derive from the
	// deterministic model, but the update cadence is wall-driven.
	updateShardMetrics := func() {}
	if idx.shards != nil {
		shardPoints := reg.NewGaugeVec(metrics.Opts{Name: "pimzd_shard_points",
			Help: "Points stored per Morton-prefix shard.", Wall: true, Label: "shard"})
		shardLoad := reg.NewGaugeVec(metrics.Opts{Name: "pimzd_shard_window_load",
			Help: "Modeled load (module cycles + channel bytes) per shard in the current rebalance window.", Wall: true, Label: "shard"})
		shardImb := reg.NewGauge(metrics.Opts{Name: "pimzd_shard_imbalance",
			Help: "Busiest-shard load over mean shard load in the current window.", Wall: true})
		shardReb := reg.NewCounter(metrics.Opts{Name: "pimzd_shard_rebalances_total",
			Help: "Load-weighted repartitions performed at epoch boundaries.", Wall: true})
		shardMig := reg.NewCounter(metrics.Opts{Name: "pimzd_shard_migrated_points_total",
			Help: "Points that changed shards across all repartitions.", Wall: true})
		updateShardMetrics = func() {
			st := idx.shards.Stats()
			for i, ps := range st.PerShard {
				s := strconv.Itoa(i)
				shardPoints.With(s).Set(float64(ps.Points))
				shardLoad.With(s).Set(float64(ps.WindowLoad))
			}
			shardImb.Set(st.Imbalance)
			shardReb.SetTotal(float64(st.Rebalances))
			shardMig.SetTotal(float64(st.MigratedPoints))
		}
		updateShardMetrics()
		shardsH.set(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(idx.shards.Stats()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}))
	}
	ready.Store(true)

	// Wall-cadence publisher: process uptime ticks and SLO window gauges
	// refresh once a second, independent of workload batch cadence.
	procStart := time.Now()
	procUptime.SetTotal(0)
	slo.PublishGauges()
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tickDone:
				return
			case <-tick.C:
				procUptime.SetTotal(time.Since(procStart).Seconds())
				slo.PublishGauges()
			}
		}
	}()

	var tcpSrv *serve.TCPServer
	if *tcpAddr != "" {
		tcpSrv, err = serve.ServeTCP(*tcpAddr, eng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-serve: tcp: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pimzd-serve: wire protocol on tcp://%s\n", tcpSrv.Addr())
		if *tcpPortFile != "" {
			if err := os.WriteFile(*tcpPortFile, []byte(tcpSrv.Addr()+"\n"), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "pimzd-serve: tcp-port-file: %v\n", err)
				os.Exit(1)
			}
		}
	}

	boxes := workload.QueryBoxes(*seed+1, warm, max(*batch/16, 1), 64)
	rng := rand.New(rand.NewSource(*seed + 2))
	queries := func() []geom.Point {
		qs := make([]geom.Point, *batch)
		for i := range qs {
			qs[i] = pool[rng.Intn(len(pool))]
		}
		return qs
	}

	// SIGINT/SIGTERM cancel ctx; the loop then stops at the next batch
	// boundary instead of dying mid-batch.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The synthetic workload is a client of the engine like any other:
	// its batches queue, coalesce with concurrent /v1 and TCP traffic,
	// and observe the same epoch semantics.
	mix := strings.Split(*opsMix, ",")
	if *opsMix == "" {
		mix = nil
	}
	var pending [][]geom.Point // inserted, not yet deleted
	streamOff := 0
	start := time.Now()
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
	}
	for i := 0; len(mix) > 0 && (*iters == 0 || i < *iters); i++ {
		if ctx.Err() != nil {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		op := strings.TrimSpace(mix[i%len(mix)])
		var req *serve.Request
		switch op {
		case "search":
			req = serve.NewRequest(serve.OpSearch)
			req.Pts = queries()
		case "insert":
			if streamOff+*batch > len(stream) {
				streamOff = 0
			}
			chunk := stream[streamOff : streamOff+*batch]
			streamOff += *batch
			req = serve.NewRequest(serve.OpInsert)
			req.Pts = chunk
			pending = append(pending, chunk)
		case "delete":
			if len(pending) == 0 {
				continue
			}
			req = serve.NewRequest(serve.OpDelete)
			req.Pts = pending[0]
			pending = pending[1:]
		case "knn":
			req = serve.NewRequest(serve.OpKNN)
			req.Pts = queries()[:max(*batch/8, 1)]
			req.K = *k
		case "box":
			req = serve.NewRequest(serve.OpBox)
			req.Boxes = boxes
		default:
			fmt.Fprintf(os.Stderr, "unknown op %q in -ops\n", op)
			os.Exit(2)
		}
		t0 := time.Now()
		if err := eng.Do(ctx, req); err != nil {
			if ctx.Err() != nil {
				break
			}
			fmt.Fprintf(os.Stderr, "pimzd-serve: workload %s: %v\n", op, err)
			continue
		}
		wall := time.Since(t0).Seconds()
		if req.Resp.Trace != 0 {
			wallSeconds.With(op).ObserveExemplar(wall, strconv.FormatUint(req.Resp.Trace, 10))
		} else {
			wallSeconds.With(op).Observe(wall)
		}
		uptime.Set(time.Since(start).Seconds())
		updateShardMetrics()
		slo.PublishGauges()
		if *pause > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(*pause):
			}
		}
	}

	// Workload done (bounded -iters); keep serving until -duration elapses,
	// a signal arrives, or forever, so clients and scrapers keep working.
	switch {
	case ctx.Err() != nil:
		// signaled during the workload: fall through to shutdown
	case !deadline.IsZero():
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(deadline)):
		}
	default:
		<-ctx.Done() // serve until signaled
	}

	// Graceful shutdown, client-facing first: close intake and drain
	// admitted requests (past the deadline they resolve as 503 instead of
	// hanging), then drain client connections, then flush the flight dump
	// and drain the admin server.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	if err := eng.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-serve: engine drain: %v (pending requests failed with 503)\n", err)
	}
	cancelDrain()
	if tcpSrv != nil {
		tcpCtx, cancelTCP := context.WithTimeout(context.Background(), *drainTimeout)
		if err := tcpSrv.Shutdown(tcpCtx); err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-serve: tcp drain: %v\n", err)
		}
		cancelTCP()
	}
	if *flightOut != "" && fr.Enabled() {
		if err := obs.WriteDumpFile(*flightOut, fr.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-serve: flight-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pimzd-serve: flight dump written to %s\n", *flightOut)
	}
	if *requestsOut != "" && reqTracer.Enabled() {
		if err := obs.WriteDumpFile(*requestsOut, reqTracer.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-serve: requests-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pimzd-serve: slow-request dump written to %s\n", *requestsOut)
	}
	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-serve: shutdown: %v\n", err)
	}
}
