// Command pimzd-bench regenerates the paper's evaluation tables and
// figures on the simulated PIM system.
//
// Usage:
//
//	pimzd-bench -experiment all
//	pimzd-bench -experiment fig5a -warmup 1000000 -batch 100000
//	pimzd-bench -experiment table3
//
// Experiments: fig5a fig5b fig5c fig6 fig7 fig8 fig9 table2 table3
// latency dims datasets all; extensions: energy strawman pscale future
// bounds saturate (wall-clock serving sweep, excluded from `all`)
// shardscale (Morton-prefix multi-tree scale-out, excluded from `all`).
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"pimzdtree/internal/bench"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/workload"
)

// loadPoints reads a point file, auto-detecting the binary format by its
// magic and falling back to CSV. The magic is read with io.ReadFull: a
// plain fd.Read may legally return fewer than 5 bytes (short read), which
// would misclassify a binary file as CSV. Files shorter than the magic
// (EOF/ErrUnexpectedEOF) fall through to the CSV parser; real I/O errors
// propagate.
func loadPoints(path string) ([]geom.Point, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	var magic [5]byte
	_, err = io.ReadFull(fd, magic[:])
	switch {
	case err == nil && string(magic[:]) == "PTS1\n":
		if _, err := fd.Seek(0, 0); err != nil {
			return nil, err
		}
		return workload.ReadPoints(fd)
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return nil, err
	}
	if _, err := fd.Seek(0, 0); err != nil {
		return nil, err
	}
	return workload.ReadCSV(fd)
}

// writeTraces exports one experiment's recorded events: Chrome trace-event
// JSON (Perfetto-loadable) and JSONL (CI-diffable) under dir.
func writeTraces(dir, id string, rec *obs.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	export := func(name string, f func(io.Writer) error) error {
		fd, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f(fd); err != nil {
			fd.Close()
			return err
		}
		return fd.Close()
	}
	if err := export(id+".trace.json", rec.ExportChrome); err != nil {
		return err
	}
	return export(id+".jsonl", rec.ExportJSONL)
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig5a..fig9, table2, table3, latency, dims, energy, datasets, all)")
		format     = flag.String("format", "table", "output format: table or csv")
		warmup     = flag.Int("warmup", bench.Defaults().WarmupN, "warmup points before measurement")
		batch      = flag.Int("batch", bench.Defaults().BatchOps, "point operations per measured batch")
		modules    = flag.Int("p", bench.Defaults().P, "number of PIM modules")
		seed       = flag.Int64("seed", bench.Defaults().Seed, "workload seed")
		dims       = flag.Int("dims", int(bench.Defaults().Dims), "point dimensionality (2-4)")
		file       = flag.String("file", "", "run the fig5 operation suite on a point file (binary PTS1 or CSV) instead of a synthetic dataset")
		traceOut   = flag.String("trace-out", "", "directory for per-experiment traces (<id>.trace.json Chrome format + <id>.jsonl)")
		traceSmp   = flag.Int("trace-sample", 0, "with -trace-out, snapshot module loads every N rounds (0 = off)")
		benchJSON  = flag.String("bench-json", "", "write per-experiment harness wall-clock and MOp/s to this JSON file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		serveAddr  = flag.String("serve", "", "serve live metrics (/metrics, /healthz, /debug/pprof) on this address while experiments run (host:0 for an ephemeral port)")

		flightOut   = flag.String("flight-out", "", "write a per-op flight-recorder dump (JSON) to this file at exit")
		flightRing  = flag.Int("flight", 256, "with -flight-out, flight-recorder ring capacity in ops")
		slowMs      = flag.Float64("slow-ms", 0, "with -flight-out, capture ops whose wall time reaches this many milliseconds (0 = top-K by latency)")
		slowModeled = flag.Float64("slow-modeled-us", 0, "with -flight-out, capture ops whose modeled time reaches this many microseconds")
		slowK       = flag.Int("slow-k", 16, "with -flight-out, retained slow-op records")
	)
	flag.Parse()
	obs.ServePprof(*pprofAddr)
	if *cpuProfile != "" {
		fd, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(fd); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			fd.Close()
		}()
	}

	// Live metrics: one registry outlives the per-experiment recorders, so
	// a scrape mid-run sees the whole suite's aggregate so far. Modeled
	// results are unaffected — the recorder is a passive observer.
	var (
		liveSink   *metrics.ObsSink
		wallPanels *metrics.HistogramVec
	)
	if *serveAddr != "" {
		reg := metrics.New()
		liveSink = metrics.NewObsSink(reg)
		wallPanels = reg.NewHistogramVec(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_panel_wall_seconds",
			Help: "Wall-clock time per experiment panel (real time, not modeled).",
			Wall: true, Label: "experiment"}})
		srv, err := metrics.StartAdmin(*serveAddr, metrics.AdminConfig{Registry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics\n", srv.Addr())
	}
	// Per-op tracing: one flight recorder outlives the per-experiment
	// recorders (like the live registry), so trace IDs run through the whole
	// suite and the final dump covers every experiment.
	var flight *obs.FlightRecorder
	if *flightOut != "" {
		flight = obs.NewFlightRecorder(obs.FlightConfig{
			Ring:               *flightRing,
			SlowWallSeconds:    *slowMs / 1e3,
			SlowModeledSeconds: *slowModeled / 1e6,
			SlowK:              *slowK,
		})
	}
	flushFlight := func() {
		if flight == nil {
			return
		}
		if err := obs.WriteDumpFile(*flightOut, flight.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "flight-out: %v\n", err)
			os.Exit(1)
		}
	}

	// newRecorder builds the per-experiment recorder: retained for trace
	// export when -trace-out is set, streaming-only when just serving or
	// flight-recording.
	newRecorder := func() *obs.Recorder {
		if *traceOut == "" && liveSink == nil && flight == nil {
			return nil
		}
		rec := obs.New()
		rec.SetRetainEvents(*traceOut != "")
		rec.SetModuleSampling(*traceSmp)
		if liveSink != nil {
			rec.SetSink(liveSink)
			// Keep the imbalance gauges live — but never change the
			// sampling a trace export would see: trace files must stay
			// byte-identical with serving on or off.
			if *traceSmp == 0 && *traceOut == "" {
				rec.SetModuleSampling(64)
			}
		}
		if flight != nil {
			rec.SetFlight(flight)
		}
		return rec
	}

	p := bench.Params{
		Seed:     *seed,
		WarmupN:  *warmup,
		BatchOps: *batch,
		Dims:     uint8(*dims),
		P:        *modules,
	}

	csvMode := *format == "csv"
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
	check := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			os.Exit(1)
		}
	}

	// Harness perf trajectory: wall-clock seconds and executed-op
	// throughput per panel, written as JSON so perf PRs can diff the
	// simulator's own speed separately from the (byte-stable) modeled CSVs.
	var perf *bench.PerfReport
	if *benchJSON != "" {
		perf = &bench.PerfReport{
			WarmupN:  p.WarmupN,
			BatchOps: p.BatchOps,
			P:        p.P,
			Traced:   *traceOut != "",
		}
	}
	flushPerf := func() {
		if perf == nil {
			return
		}
		fd, err := os.Create(*benchJSON)
		if err == nil {
			err = perf.WriteJSON(fd)
			if cerr := fd.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-json: %v\n", err)
			os.Exit(1)
		}
	}

	run := func(id string) {
		start := time.Now()
		bench.ResetOpsCount()
		if !csvMode {
			fmt.Printf("== %s ==\n", id)
		}
		// Each experiment gets a fresh recorder so its trace files stand
		// alone; with tracing and serving both off, p.Obs stays nil and
		// nothing changes.
		rec := newRecorder()
		p.Obs = rec
		switch id {
		case "fig5a", "fig5b", "fig5c":
			ds := map[string]workload.Dataset{
				"fig5a": workload.DatasetUniform,
				"fig5b": workload.DatasetCosmos,
				"fig5c": workload.DatasetOSM,
			}[id]
			rows := bench.Fig5(ds, p)
			if csvMode {
				check(bench.Fig5CSV(os.Stdout, rows))
			} else {
				bench.RenderFig5(os.Stdout, ds, rows)
			}
		case "fig6":
			rows := bench.Fig6(p)
			if csvMode {
				check(bench.Fig6CSV(os.Stdout, rows))
			} else {
				bench.RenderFig6(os.Stdout, rows)
			}
		case "fig7":
			rows := bench.Fig7(p)
			if csvMode {
				check(bench.Fig7CSV(os.Stdout, rows))
			} else {
				bench.RenderFig7(os.Stdout, rows)
			}
		case "fig8":
			rows := bench.Fig8(p)
			if csvMode {
				check(bench.Fig8CSV(os.Stdout, rows))
			} else {
				bench.RenderFig8(os.Stdout, rows)
			}
		case "fig9":
			rows := bench.Fig9(p)
			if csvMode {
				check(bench.Fig9CSV(os.Stdout, rows))
			} else {
				bench.RenderFig9(os.Stdout, rows)
			}
		case "table2":
			rows := bench.Table2(p)
			if csvMode {
				check(bench.Table2CSV(os.Stdout, rows))
			} else {
				bench.RenderTable2(os.Stdout, rows)
			}
		case "table3":
			rows := bench.Table3(p)
			if csvMode {
				check(bench.Table3CSV(os.Stdout, rows))
			} else {
				bench.RenderTable3(os.Stdout, rows)
			}
		case "latency":
			rows := bench.Latency(p)
			if csvMode {
				check(bench.LatencyCSV(os.Stdout, rows))
			} else {
				bench.RenderLatency(os.Stdout, rows)
			}
		case "dims":
			rows := bench.Dims(p)
			if csvMode {
				check(bench.DimsCSV(os.Stdout, rows))
			} else {
				bench.RenderDims(os.Stdout, rows)
			}
		case "energy":
			rows := bench.Energy(p)
			if csvMode {
				check(bench.EnergyCSV(os.Stdout, rows))
			} else {
				bench.RenderEnergy(os.Stdout, rows)
			}
		case "pscale":
			rows := bench.PScale(p)
			if csvMode {
				check(bench.PScaleCSV(os.Stdout, rows))
			} else {
				bench.RenderPScale(os.Stdout, rows)
			}
		case "recon":
			rows := bench.Recon(p)
			if csvMode {
				check(bench.ReconCSV(os.Stdout, rows))
			} else {
				bench.RenderRecon(os.Stdout, rows)
			}
		case "build":
			rows := bench.Build(p)
			if csvMode {
				check(bench.BuildCSV(os.Stdout, rows))
			} else {
				bench.RenderBuild(os.Stdout, rows)
			}
		case "bounds":
			rows := bench.Bounds(p)
			if csvMode {
				check(bench.BoundsCSV(os.Stdout, rows))
			} else {
				bench.RenderBounds(os.Stdout, rows)
			}
		case "future":
			rows := bench.Future(p)
			if csvMode {
				check(bench.FutureCSV(os.Stdout, rows))
			} else {
				bench.RenderFuture(os.Stdout, rows)
			}
		case "strawman":
			rows := bench.Strawman(p)
			if csvMode {
				check(bench.StrawmanCSV(os.Stdout, rows))
			} else {
				bench.RenderStrawman(os.Stdout, rows)
			}
		case "datasets":
			bench.DatasetInfo(os.Stdout, p)
		case "saturate":
			// Wall-clock serving capacity (FIFO vs epoch pipeline); not in
			// `-experiment all` because its CSV is timing-dependent, unlike
			// the byte-stable modeled panels.
			rows := bench.Saturate(p)
			if csvMode {
				check(bench.SaturateCSV(os.Stdout, rows))
			} else {
				bench.RenderSaturate(os.Stdout, rows)
			}
		case "shardscale":
			// Morton-prefix shard scale-out (S racks, cross-shard merge,
			// rebalancer storm); an extension beyond the paper's single-rack
			// evaluation, so like saturate it stays out of `-experiment all`
			// and lands in the BENCH_<n>.json trajectory instead.
			rows := bench.ShardScale(p)
			if csvMode {
				check(bench.ShardScaleCSV(os.Stdout, rows))
			} else {
				bench.RenderShardScale(os.Stdout, rows)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		if rec != nil && *traceOut != "" {
			if err := writeTraces(*traceOut, id, rec); err != nil {
				fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
				os.Exit(1)
			}
		}
		wallPanels.With(id).Observe(time.Since(start).Seconds())
		if perf != nil {
			perf.AddPanel(id, time.Since(start).Seconds(), bench.OpsCount())
		}
		if !csvMode {
			fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		_ = start
	}

	if *file != "" {
		pts, err := loadPoints(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *file, err)
			os.Exit(1)
		}
		p.Dims = pts[0].Dims
		p.WarmupN = len(pts)
		if rec := newRecorder(); rec != nil {
			p.Obs = rec
			if *traceOut != "" {
				defer func() {
					if err := writeTraces(*traceOut, "custom", rec); err != nil {
						fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
						os.Exit(1)
					}
				}()
			}
		}
		start := time.Now()
		bench.ResetOpsCount()
		rows := bench.Fig5Custom(pts, p)
		if *format == "csv" {
			if err := bench.Fig5CSV(os.Stdout, rows); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Printf("custom dataset %s: %d points, dims=%d, gini=%.3f\n",
				*file, len(pts), pts[0].Dims, workload.Gini(pts, 2048))
			bench.RenderFig5Custom(os.Stdout, rows)
		}
		if perf != nil {
			perf.AddPanel("custom", time.Since(start).Seconds(), bench.OpsCount())
		}
		flushPerf()
		flushFlight()
		return
	}

	if *experiment == "all" {
		for _, id := range []string{
			"datasets", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8",
			"fig9", "table2", "table3", "latency", "dims", "energy",
			"strawman", "pscale", "future", "bounds", "build", "recon",
		} {
			run(id)
		}
		flushPerf()
		flushFlight()
		return
	}
	for _, id := range strings.Split(*experiment, ",") {
		run(strings.TrimSpace(id))
	}
	flushPerf()
	flushFlight()
}
