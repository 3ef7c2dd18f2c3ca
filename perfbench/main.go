// Command perfbench is the repository's benchmark. It builds the index
// from source, drives one named workload for a fixed time, checks the
// outputs against brute force, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload uniform-batch --seed 1 --seconds 30 --trace 0
//
// Workloads (inputs are generated from --seed before anything is timed):
//
//   - uniform-batch: core.Tree, throughput-optimized, P=256, 1M uniform 3-D
//     points. One closed-loop caller repeats rounds of insert 20k fresh
//     points, search 20k, kNN (k=10) on 2k, box-count 2k boxes (~100 hits),
//     box-fetch 1k, delete the 20k inserted. The paper's Fig. 5(a) suite:
//     core and pim do the work; serve and shard are bypassed.
//   - skew-sharded: shard.Index with 4 racks of P=256, skew-resistant,
//     rebalancing on, 1M uniform points; the same rounds (no box-fetch)
//     with inserts drawn from the Varden distribution and queries drawn
//     around the Varden points each round inserts. One shard is hot,
//     push-pull pulls chunks, and the rebalancer migrates.
//   - serve-tree: serve.Engine (pipeline mode) over one core.Tree, P=512,
//     200k uniform points, wired with pimzd-serve's registry, flight ring,
//     request tracer and SLO tracker. Single-item requests in the default
//     mix (search 70 / insert 15 / delete 5 / kNN k=8 / box 2): first as
//     backlog bursts of 50k, then open loop from one Poisson dispatcher and
//     one collector at 8,000 and 16,000 req/s, each rate in nine
//     interleaved pieces of at least 10k requests. Open-loop requests are
//     timed from their scheduled send time.
//
// Every workload reports every end-to-end metric (--trace 0):
//
//   - setup_s: median of the run's set-ups, each from the index
//     constructor to the first timed op, including one untimed warm-up
//     round.
//   - modeled_insert_pts_per_s … modeled_box_count_q_per_s: items per
//     modeled second of the index's calls for that op, and modeled_s, the
//     modeled seconds of all of them. Modeled time is the simulated PIM
//     system's (the UPMEM server the cost model describes), the clock of
//     the paper's throughput figures. The batch workloads measure six
//     timed rounds on each of several indexes (five uniform, eight skewed),
//     each built over its own warmup set; serve-tree measures backlog bursts that the engine
//     coalesces into one epoch each (a plug request is held in the backend
//     while the backlog queues). Both are fixed op sequences, so the
//     values repeat exactly for a seed. On skew-sharded a call that
//     repartitions the index counts in modeled_s but not in its op's
//     throughput: its cost is mostly migration, which moves by a quarter
//     from seed to seed (shard.rebalance_modeled_s reports it per layer).
//
// Host wall-clock figures are not end-to-end metrics: on a few shared
// cores they move by more than a quarter from run to run of the same
// code. The traced run reports them per layer: core.*.items_per_s (wall
// throughput inside the index's calls) and serve.{low,high}.p50_ms /
// p999_ms and serve.capacity_rps (serving latency and capacity).
//
// Failures: the result's attempted and failed counts cover every timed
// call (batch) or every burst and fixed-rate request (serve-tree; a shed
// or failed request counts as failed). A failed output check fails the
// run: the result line then reads "correct": false.
//
// --trace 1 instead reports the per-layer metrics (core.*, pim.*, shard.*,
// serve.*, loadgen.*, obs.*) from a traced pass, writes its spans as
// Chrome trace-event JSON under .bench_build/traces/, and reports the
// tracing overhead against an untraced pass of the same length. On
// serve-tree the traced run offers the fixed rates untraced (latencies)
// and traced (stages), then bisects for capacity: the highest offered
// rate, to ±5%, with p99.9 <= 250 ms, >= 95% of the offered rate
// completing in the step's steady state, < 1% shed and no growing
// backlog.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds float64, traced bool, tr *tracer) (*result, error){
	"uniform-batch": func(seed int64, seconds float64, traced bool, tr *tracer) (*result, error) {
		return runBatch(batchWorkload{size: uniformBatch, modules: 256}, seed, seconds, traced, tr)
	},
	"skew-sharded": func(seed int64, seconds float64, traced bool, tr *tracer) (*result, error) {
		return runBatch(batchWorkload{sharded: true, size: skewBatch, modules: 256}, seed, seconds, traced, tr)
	},
	"serve-tree": func(seed int64, seconds float64, traced bool, tr *tracer) (*result, error) {
		return runServe(fullServe, seed, seconds, traced, tr)
	},
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envStamp identifies the machine and build a result came from.
func envStamp(seed int64, gitSHA string) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"git_sha":    gitSHA,
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: uniform-batch, skew-sharded or serve-tree")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
		gitSHA  = flag.String("git-sha", "unknown", "commit the benchmark was built from")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	env := envStamp(*seed, *gitSHA)
	envLine, _ := json.Marshal(map[string]any{"env": env, "workload": *name})
	fmt.Println(string(envLine))

	traced := *trace == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := run(*seed, *seconds, traced, tr)
	if err == nil && traced {
		err = dumpSpans(tr, *out, *name, *seed, env, res.m["obs.trace_overhead_frac"])
	}
	line := resultLine{Correct: err == nil}
	if err == nil {
		defs := endToEnd
		if traced {
			defs = perLayer()
			res.m.fill(defs)
		}
		line.Metrics, err = res.m.emit(defs)
		line.Attempted, line.Failed = res.attempted, res.failed
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		line = resultLine{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// dumpSpans checks the traced run's span tree and writes it as Chrome
// trace-event JSON.
func dumpSpans(tr *tracer, out, name string, seed int64, env map[string]any, overhead float64) error {
	if err := checkNesting(tr.spans); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
	if err := writeChrome(path, tr.spans, map[string]any{"env": env, "workload": name,
		"trace_overhead_frac": overhead}); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	n, err := readChrome(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Printf("span dump: %s (%d events), obs.trace_overhead_frac %.4f\n", path, n, overhead)
	return nil
}
