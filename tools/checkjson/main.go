// Command checkjson validates trace exports and gates perf in CI. Modes:
//
//	checkjson -chrome file.json   # Chrome trace-event JSON: must parse and
//	                              # contain a non-empty traceEvents array
//	checkjson -jsonl file.jsonl   # JSONL: every line must be valid JSON
//	checkjson -bench file.json    # pimzd-bench -bench-json report: must
//	                              # parse with non-empty panels, each with
//	                              # an experiment id and positive seconds
//	checkjson -promtext file.txt  # Prometheus text exposition: must parse
//	                              # and pass the exposition lint (sorted
//	                              # families, histogram invariants)
//	checkjson -flight file.json   # capture dump, by its format id:
//	                              # flight-recorder dump: ring ordered by
//	                              # trace, records internally consistent
//	                              # (non-negative counters, straggler >=
//	                              # -1, rounds match detail); slow-request
//	                              # dump: slowest first (ties by seq), no
//	                              # more records than observed, stage
//	                              # seconds summing to each total
//	checkjson -slo file.json      # /snapshot/slo dump: format id,
//	                              # objectives sorted by op, windows in
//	                              # 1m/5m/1h order, bad <= total, and the
//	                              # burn-rate identity burn = err/(1-target)
//	checkjson -diff old.json new.json [-threshold pct] [-panels a,b]
//	                              # perf-regression gate between two
//	                              # -bench-json reports: fail when any
//	                              # panel's or phase's mops_per_sec drops
//	                              # more than pct percent (default 10);
//	                              # -panels restricts the gate to a
//	                              # comma-separated panel allowlist
//
// Exit status 0 on success; 1 with a diagnostic on the first violation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/serve"
)

func main() {
	var (
		chrome    = flag.String("chrome", "", "validate a Chrome trace-event JSON file")
		jsonl     = flag.String("jsonl", "", "validate a JSONL file line by line")
		bench     = flag.String("bench", "", "validate a pimzd-bench -bench-json perf report")
		promtext  = flag.String("promtext", "", "lint a Prometheus text exposition file")
		flight    = flag.String("flight", "", "validate a flight-recorder or slow-request dump (pimzd-serve -flight-out/-requests-out, pimzd-bench -flight-out)")
		slo       = flag.String("slo", "", "validate an SLO snapshot (pimzd-serve /snapshot/slo)")
		diffMode  = flag.Bool("diff", false, "diff two -bench-json reports: checkjson -diff old.json new.json")
		threshold = flag.Float64("threshold", 10, "with -diff, regression threshold in percent")
		panels    = flag.String("panels", "", "with -diff, comma-separated allowlist of panel ids to compare (default: all)")
	)
	flag.Parse()
	switch {
	case *chrome != "":
		if err := checkChrome(*chrome); err != nil {
			fail(*chrome, err)
		}
	case *jsonl != "":
		if err := checkJSONL(*jsonl); err != nil {
			fail(*jsonl, err)
		}
	case *bench != "":
		if err := checkBench(*bench); err != nil {
			fail(*bench, err)
		}
	case *promtext != "":
		if err := checkPromText(*promtext); err != nil {
			fail(*promtext, err)
		}
	case *flight != "":
		if err := checkFlight(*flight); err != nil {
			fail(*flight, err)
		}
	case *slo != "":
		if err := checkSLO(*slo); err != nil {
			fail(*slo, err)
		}
	case *diffMode:
		paths, err := diffArgs(flag.Args(), threshold, panels)
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkjson: %v\n", err)
			os.Exit(2)
		}
		if err := diffBench(os.Stdout, paths[0], paths[1], *threshold, parsePanels(*panels)); err != nil {
			fail(paths[1], err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: checkjson -chrome file.json | -jsonl file.jsonl | -bench file.json | -promtext file.txt | -flight file.json | -slo file.json | -diff old.json new.json [-threshold pct] [-panels a,b]")
		os.Exit(2)
	}
}

// diffArgs extracts the two report paths for -diff. The flag package stops
// parsing at the first positional, so a trailing "-threshold N" or
// "-panels a,b" after the file names would otherwise be swallowed into
// the positionals — scan for them by hand.
func diffArgs(args []string, threshold *float64, panels *string) ([]string, error) {
	var paths []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-threshold", "--threshold":
			if i+1 >= len(args) {
				return nil, fmt.Errorf("-threshold needs a value")
			}
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("-threshold %q: %v", args[i+1], err)
			}
			*threshold = v
			i++
		case "-panels", "--panels":
			if i+1 >= len(args) {
				return nil, fmt.Errorf("-panels needs a value")
			}
			*panels = args[i+1]
			i++
		default:
			paths = append(paths, args[i])
		}
	}
	if len(paths) != 2 {
		return nil, fmt.Errorf("-diff needs exactly two report paths, got %d", len(paths))
	}
	return paths, nil
}

func checkPromText(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	return metrics.LintText(fd)
}

func fail(path string, err error) {
	fmt.Fprintf(os.Stderr, "checkjson: %s: %v\n", path, err)
	os.Exit(1)
}

func checkChrome(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("empty traceEvents array")
	}
	return nil
}

func checkBench(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Panels []struct {
			Experiment string  `json:"experiment"`
			Seconds    float64 `json:"seconds"`
			Phases     []struct {
				Name    string  `json:"name"`
				Seconds float64 `json:"seconds"`
				Ops     int64   `json:"ops"`
			} `json:"phases"`
		} `json:"panels"`
		TotalSeconds float64 `json:"total_seconds"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.Panels) == 0 {
		return fmt.Errorf("empty panels array")
	}
	for i, p := range doc.Panels {
		if p.Experiment == "" {
			return fmt.Errorf("panel %d: missing experiment id", i)
		}
		if p.Seconds <= 0 {
			return fmt.Errorf("panel %d (%s): non-positive seconds", i, p.Experiment)
		}
		// Phase breakdowns are optional per panel, but two panels must
		// carry them: fig6 (the update-path trajectory entry) and
		// shardscale (its scale_s/scale_n/storm sections are only
		// distinguishable through the phase list).
		if p.Experiment == "fig6" && len(p.Phases) == 0 {
			return fmt.Errorf("panel %d (fig6): missing phase breakdown", i)
		}
		if p.Experiment == "shardscale" {
			want := map[string]bool{"scale_s": false, "scale_n": false, "storm": false}
			for _, ph := range p.Phases {
				if _, ok := want[ph.Name]; ok {
					want[ph.Name] = true
				}
			}
			for name, seen := range want {
				if !seen {
					return fmt.Errorf("panel %d (shardscale): missing %q phase", i, name)
				}
			}
		}
		for j, ph := range p.Phases {
			if ph.Name == "" {
				return fmt.Errorf("panel %d (%s): phase %d missing name", i, p.Experiment, j)
			}
			if ph.Seconds <= 0 {
				return fmt.Errorf("panel %d (%s): phase %q non-positive seconds", i, p.Experiment, ph.Name)
			}
			if ph.Ops <= 0 {
				return fmt.Errorf("panel %d (%s): phase %q non-positive ops", i, p.Experiment, ph.Name)
			}
		}
	}
	if doc.TotalSeconds <= 0 {
		return fmt.Errorf("non-positive total_seconds")
	}
	return nil
}

// checkFlight validates a capture dump, dispatching on its format id.
func checkFlight(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return err
	}
	switch head.Format {
	case obs.FlightDumpFormat:
		var d obs.FlightDump
		if err := json.Unmarshal(data, &d); err != nil {
			return err
		}
		return checkFlightDump(&d)
	case serve.RequestDumpFormat:
		var d serve.RequestDump
		if err := json.Unmarshal(data, &d); err != nil {
			return err
		}
		return checkRequestDump(&d)
	}
	return fmt.Errorf("format %q, want %q or %q", head.Format, obs.FlightDumpFormat, serve.RequestDumpFormat)
}

// checkRequestDump validates a slow-request dump: the capture bound, the
// snapshot order, and each record's stage sum.
func checkRequestDump(d *serve.RequestDump) error {
	if int64(len(d.Slow)) > d.Observed {
		return fmt.Errorf("%d slow records exceed %d observed", len(d.Slow), d.Observed)
	}
	for i := range d.Slow {
		r := &d.Slow[i]
		if i > 0 {
			p := &d.Slow[i-1]
			if p.TotalSeconds < r.TotalSeconds || (p.TotalSeconds == r.TotalSeconds && p.Seq >= r.Seq) {
				return fmt.Errorf("slow[%d]: seq %d (%gs) not after seq %d (%gs) in slowest-first order",
					i, r.Seq, r.TotalSeconds, p.Seq, p.TotalSeconds)
			}
		}
		sum := 0.0
		for _, v := range r.StageSeconds {
			sum += v
		}
		if !approxEq(sum, r.TotalSeconds) {
			return fmt.Errorf("slow[%d]: stages sum to %gs, total %gs", i, sum, r.TotalSeconds)
		}
	}
	return nil
}

// checkFlightDump validates a flight-recorder dump.
func checkFlightDump(d *obs.FlightDump) error {
	if d.Captured < int64(len(d.Ring)) {
		return fmt.Errorf("captured %d < ring length %d", d.Captured, len(d.Ring))
	}
	if d.Dropped < 0 {
		return fmt.Errorf("negative dropped count %d", d.Dropped)
	}
	if d.Captured > 0 && len(d.Ring) == 0 {
		return fmt.Errorf("captured %d ops but empty ring", d.Captured)
	}
	var prev uint64
	for i := range d.Ring {
		r := &d.Ring[i]
		if r.Trace <= prev {
			return fmt.Errorf("ring[%d]: trace %d not increasing (prev %d)", i, r.Trace, prev)
		}
		prev = r.Trace
		if err := checkOpRecord(r); err != nil {
			return fmt.Errorf("ring[%d]: %v", i, err)
		}
	}
	for i := range d.Slow {
		if err := checkOpRecord(&d.Slow[i]); err != nil {
			return fmt.Errorf("slow[%d]: %v", i, err)
		}
	}
	return nil
}

// checkSLO validates a /snapshot/slo dump: schema version, objective
// ordering, window identity (the fixed 1m/5m/1h ladder), and the
// burn-rate arithmetic each row claims.
func checkSLO(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	s, err := metrics.ReadSLOSnapshot(fd)
	if err != nil {
		return err
	}
	if s.Format != metrics.SLODumpFormat {
		return fmt.Errorf("format %q, want %q", s.Format, metrics.SLODumpFormat)
	}
	wantWindows := []string{"1m", "5m", "1h"}
	prevOp := ""
	for i, obj := range s.Objectives {
		if obj.Op == "" {
			return fmt.Errorf("objective[%d]: empty op", i)
		}
		if obj.Op <= prevOp {
			return fmt.Errorf("objective[%d]: op %q not sorted after %q", i, obj.Op, prevOp)
		}
		prevOp = obj.Op
		if obj.LatencySeconds <= 0 {
			return fmt.Errorf("%s: non-positive latency objective %g", obj.Op, obj.LatencySeconds)
		}
		if obj.Target <= 0 || obj.Target >= 1 {
			return fmt.Errorf("%s: target %g outside (0, 1)", obj.Op, obj.Target)
		}
		if obj.Bad > obj.Total {
			return fmt.Errorf("%s: all-time bad %d > total %d", obj.Op, obj.Bad, obj.Total)
		}
		if len(obj.Windows) != len(wantWindows) {
			return fmt.Errorf("%s: %d windows, want %d", obj.Op, len(obj.Windows), len(wantWindows))
		}
		for w, ws := range obj.Windows {
			if ws.Window != wantWindows[w] {
				return fmt.Errorf("%s: window[%d] %q, want %q", obj.Op, w, ws.Window, wantWindows[w])
			}
			if ws.Bad > ws.Total {
				return fmt.Errorf("%s/%s: bad %d > total %d", obj.Op, ws.Window, ws.Bad, ws.Total)
			}
			if ws.Total > obj.Total {
				return fmt.Errorf("%s/%s: window total %d > all-time total %d", obj.Op, ws.Window, ws.Total, obj.Total)
			}
			wantErr := 0.0
			if ws.Total > 0 {
				wantErr = float64(ws.Bad) / float64(ws.Total)
			}
			if !approxEq(ws.ErrorRate, wantErr) {
				return fmt.Errorf("%s/%s: error rate %g, want %g", obj.Op, ws.Window, ws.ErrorRate, wantErr)
			}
			if !approxEq(ws.BurnRate, ws.ErrorRate/(1-obj.Target)) {
				return fmt.Errorf("%s/%s: burn rate %g violates err/(1-target)", obj.Op, ws.Window, ws.BurnRate)
			}
			if !approxEq(ws.BudgetRemaining, 1-ws.BurnRate) {
				return fmt.Errorf("%s/%s: budget remaining %g, want 1-burn", obj.Op, ws.Window, ws.BudgetRemaining)
			}
		}
	}
	return nil
}

// approxEq tolerates JSON round-trip float noise.
func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		scale = b
		if scale < 0 {
			scale = -scale
		}
	}
	return d <= 1e-9*scale
}

// checkOpRecord validates one per-op record's internal consistency.
func checkOpRecord(r *obs.OpRecord) error {
	switch {
	case r.Trace == 0:
		return fmt.Errorf("zero trace ID")
	case r.Op == "":
		return fmt.Errorf("trace %d: empty op name", r.Trace)
	case r.WallSeconds < 0 || r.CPUSeconds < 0 || r.PIMSeconds < 0 || r.CommSeconds < 0:
		return fmt.Errorf("trace %d: negative time", r.Trace)
	case r.Rounds < 0 || r.MaxActive < 0:
		return fmt.Errorf("trace %d: negative rounds or active-module count", r.Trace)
	case r.Straggler < -1:
		return fmt.Errorf("trace %d: straggler %d below -1", r.Trace, r.Straggler)
	case r.Straggler == -1 && r.StragglerRounds != 0:
		return fmt.Errorf("trace %d: straggler rounds %d without a straggler", r.Trace, r.StragglerRounds)
	case int64(len(r.RoundDetail)) > r.Rounds:
		return fmt.Errorf("trace %d: %d detailed rounds exceed round count %d", r.Trace, len(r.RoundDetail), r.Rounds)
	case !r.Truncated && int64(len(r.RoundDetail)) != r.Rounds:
		return fmt.Errorf("trace %d: %d detailed rounds != %d rounds on an untruncated record", r.Trace, len(r.RoundDetail), r.Rounds)
	}
	for j, rd := range r.RoundDetail {
		switch {
		case rd.Active < 0 || rd.MaxCycles < 0 || rd.TotalCycles < 0 || rd.BytesToPIM < 0 || rd.BytesFromPIM < 0:
			return fmt.Errorf("trace %d round %d: negative counter", r.Trace, j)
		case rd.MaxCycles > rd.TotalCycles:
			return fmt.Errorf("trace %d round %d: max cycles %d > total %d", r.Trace, j, rd.MaxCycles, rd.TotalCycles)
		case rd.PIMSeconds < 0 || rd.CommSeconds < 0:
			return fmt.Errorf("trace %d round %d: negative modeled time", r.Trace, j)
		case rd.Straggler < -1:
			return fmt.Errorf("trace %d round %d: straggler %d below -1", r.Trace, j, rd.Straggler)
		case rd.Straggler >= 0 && rd.Active == 0:
			return fmt.Errorf("trace %d round %d: straggler %d in an idle round", r.Trace, j, rd.Straggler)
		}
	}
	return nil
}

func checkJSONL(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	sc := bufio.NewScanner(fd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if !json.Valid(sc.Bytes()) {
			return fmt.Errorf("line %d: invalid JSON", line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if line == 0 {
		return fmt.Errorf("empty file")
	}
	return nil
}
