package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Export formats. All exporters are views over the same event stream and
// are deterministic: timestamps are modeled seconds (never wall clocks),
// struct fields serialize in declaration order, and map-valued JSON (the
// counter registry, Chrome args) is sorted by key by encoding/json.

// Chrome trace-event tracks. One process ("modeled machine"), three
// threads so Perfetto renders the hierarchy and the two resources as
// separate swimlanes.
const (
	chromePid    = 1
	tidSpans     = 1 // op/phase span hierarchy
	tidPIMRounds = 2 // BSP rounds
	tidCPUPhases = 3 // host compute phases
)

// chromeEvent is one Chrome trace-event object (the Perfetto-compatible
// JSON format; see the Trace Event Format spec).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ExportChrome writes the event stream as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Spans render
// as nested slices on the span track; rounds and CPU phases as slices on
// their resource tracks; sampled module-load imbalance as a counter track.
func (r *Recorder) ExportChrome(w io.Writer) error {
	events := r.Events()
	counters := r.Counters()
	out := make([]chromeEvent, 0, len(events)+8)

	meta := func(tid int, name string) {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(tidSpans, "op/phase spans")
	meta(tidPIMRounds, "PIM rounds")
	meta(tidCPUPhases, "CPU phases")

	us := func(sec float64) float64 { return sec * 1e6 }
	lastTs := 0.0
	for _, e := range events {
		ts := us(e.Start)
		if end := us(e.Start + e.Dur); end > lastTs {
			lastTs = end
		}
		dur := us(e.Dur)
		switch e.Kind {
		case KindOp, KindPhase:
			args := map[string]any{
				"cpu_us":  us(e.Breakdown.CPUSeconds),
				"pim_us":  us(e.Breakdown.PIMSeconds),
				"comm_us": us(e.Breakdown.CommSeconds),
				"rounds":  e.Rounds,
			}
			if e.Trace != 0 {
				args["trace"] = e.Trace
			}
			out = append(out, chromeEvent{
				Name: e.Name, Ph: "X", Ts: ts, Dur: &dur,
				Pid: chromePid, Tid: tidSpans, Cat: e.Kind.String(),
				Args: args,
			})
		case KindRound:
			args := map[string]any{
				"op":             e.Op,
				"phase":          e.Phase,
				"active_modules": e.Round.ActiveModules,
				"max_cycles":     e.Round.MaxCycles,
				"total_cycles":   e.Round.TotalCycles,
				"bytes_to_pim":   e.Round.BytesToPIM,
				"bytes_from_pim": e.Round.BytesFromPIM,
				"utilization":    e.Round.Utilization(),
			}
			if e.Profile != nil {
				args["cycles_p50"] = e.Profile.Cycles.P50
				args["cycles_p99"] = e.Profile.Cycles.P99
				args["cycles_max"] = e.Profile.Cycles.Max
				args["bytes_p50"] = e.Profile.Bytes.P50
				args["bytes_p99"] = e.Profile.Bytes.P99
				args["bytes_max"] = e.Profile.Bytes.Max
				args["imbalance"] = e.Profile.Imbalance
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("round-%d", e.Round.Seq), Ph: "X",
				Ts: ts, Dur: &dur, Pid: chromePid, Tid: tidPIMRounds,
				Cat: "round", Args: args,
			})
			if e.Profile != nil {
				out = append(out, chromeEvent{
					Name: "module-load", Ph: "C", Ts: ts,
					Pid: chromePid, Tid: tidPIMRounds,
					Args: map[string]any{
						"imbalance": e.Profile.Imbalance,
						"active":    e.Profile.Active,
					},
				})
			}
		case KindCPU:
			out = append(out, chromeEvent{
				Name: "cpu-phase", Ph: "X", Ts: ts, Dur: &dur,
				Pid: chromePid, Tid: tidCPUPhases, Cat: "cpu",
				Args: map[string]any{
					"op":      e.Op,
					"phase":   e.Phase,
					"work":    e.CPU.Work,
					"traffic": e.CPU.Traffic,
					"chase":   e.CPU.Chase,
				},
			})
		}
	}
	if len(counters) > 0 {
		args := make(map[string]any, len(counters))
		for k, v := range counters {
			args[k] = v
		}
		out = append(out, chromeEvent{
			Name: "tree-counters", Ph: "C", Ts: lastTs,
			Pid: chromePid, Tid: tidSpans, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// jsonlEvent is the JSONL schema: one flat object per event, stable field
// order, optional sections omitted when absent.
type jsonlEvent struct {
	Kind    string       `json:"kind"`
	Name    string       `json:"name"`
	Op      string       `json:"op,omitempty"`
	Phase   string       `json:"phase,omitempty"`
	Depth   int          `json:"depth"`
	StartUs float64      `json:"start_us"`
	DurUs   float64      `json:"dur_us"`
	CPUUs   float64      `json:"cpu_us,omitempty"`
	PIMUs   float64      `json:"pim_us,omitempty"`
	CommUs  float64      `json:"comm_us,omitempty"`
	Rounds  int64        `json:"rounds,omitempty"`
	Trace   uint64       `json:"trace,omitempty"`
	Round   *RoundInfo   `json:"round,omitempty"`
	CPU     *CPUInfo     `json:"cpu,omitempty"`
	Profile *LoadProfile `json:"profile,omitempty"`
}

// ExportJSONL writes one JSON object per event followed by one final
// counters object — the diff-friendly format CI compares run to run.
func (r *Recorder) ExportJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		je := jsonlEvent{
			Kind:    e.Kind.String(),
			Name:    e.Name,
			Op:      e.Op,
			Phase:   e.Phase,
			Depth:   e.Depth,
			StartUs: e.Start * 1e6,
			DurUs:   e.Dur * 1e6,
			CPUUs:   e.Breakdown.CPUSeconds * 1e6,
			PIMUs:   e.Breakdown.PIMSeconds * 1e6,
			CommUs:  e.Breakdown.CommSeconds * 1e6,
			Rounds:  e.Rounds,
			Trace:   e.Trace,
			Round:   e.Round,
			CPU:     e.CPU,
			Profile: e.Profile,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Kind     string           `json:"kind"`
		Counters map[string]int64 `json:"counters"`
	}{Kind: "counters", Counters: r.Counters()})
}

// WriteSpanTree renders the op/phase hierarchy as an indented table with
// each span's modeled-time decomposition and round count.
func (r *Recorder) WriteSpanTree(w io.Writer) {
	fmt.Fprintf(w, "%-40s  %10s  %10s  %10s  %10s  %7s\n",
		"span", "total us", "cpu us", "pim us", "comm us", "rounds")
	for _, e := range r.Events() {
		if e.Kind != KindOp && e.Kind != KindPhase {
			continue
		}
		fmt.Fprintf(w, "%-40s  %10.2f  %10.2f  %10.2f  %10.2f  %7d\n",
			strings.Repeat("  ", e.Depth)+e.Name,
			e.Dur*1e6, e.Breakdown.CPUSeconds*1e6,
			e.Breakdown.PIMSeconds*1e6, e.Breakdown.CommSeconds*1e6,
			e.Rounds)
	}
}

// WriteRounds renders the per-round table with each round's op/phase
// attribution.
func (r *Recorder) WriteRounds(w io.Writer) {
	fmt.Fprintf(w, "%5s  %-12s  %-14s  %7s  %10s  %12s  %10s  %10s  %9s  %5s\n",
		"round", "op", "phase", "modules", "max cyc", "total cyc",
		"to PIM B", "from PIM B", "time us", "util")
	for _, e := range r.Events() {
		if e.Kind != KindRound {
			continue
		}
		ri := e.Round
		fmt.Fprintf(w, "%5d  %-12s  %-14s  %7d  %10d  %12d  %10d  %10d  %9.2f  %4.0f%%\n",
			ri.Seq, clip(e.Op, 12), clip(e.Phase, 14), ri.ActiveModules,
			ri.MaxCycles, ri.TotalCycles, ri.BytesToPIM, ri.BytesFromPIM,
			ri.Seconds*1e6, ri.Utilization()*100)
	}
}

// WriteModuleProfiles renders the sampled per-round load snapshots:
// per-module cycle/byte quantiles and the imbalance factor.
func (r *Recorder) WriteModuleProfiles(w io.Writer) {
	fmt.Fprintf(w, "%5s  %-12s  %-14s  %7s  %10s  %10s  %10s  %9s  %9s  %9s  %9s\n",
		"round", "op", "phase", "active", "cyc p50", "cyc p99", "cyc max",
		"byte p50", "byte p99", "byte max", "imbalance")
	for _, e := range r.Events() {
		if e.Kind != KindRound || e.Profile == nil {
			continue
		}
		p := e.Profile
		fmt.Fprintf(w, "%5d  %-12s  %-14s  %7d  %10d  %10d  %10d  %9d  %9d  %9d  %9.2f\n",
			e.Round.Seq, clip(e.Op, 12), clip(e.Phase, 14), p.Active,
			p.Cycles.P50, p.Cycles.P99, p.Cycles.Max,
			p.Bytes.P50, p.Bytes.P99, p.Bytes.Max, p.Imbalance)
	}
}

// PhaseRow is one aggregated (op, phase) cell of the breakdown rollup.
type PhaseRow struct {
	Op, Phase string
	Breakdown Breakdown
	Rounds    int64
}

// PhaseBreakdown aggregates rounds and CPU phases by their (op, innermost
// phase) attribution — the leaf-level decomposition, so each modeled
// second is counted exactly once and rows sum to the recorder totals.
// Rows are ordered by first appearance, which is deterministic.
func (r *Recorder) PhaseBreakdown() []PhaseRow {
	var rows []PhaseRow
	index := make(map[[2]string]int)
	for _, e := range r.Events() {
		if e.Kind != KindRound && e.Kind != KindCPU {
			continue
		}
		key := [2]string{e.Op, e.Phase}
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, PhaseRow{Op: e.Op, Phase: e.Phase})
		}
		rows[i].Breakdown.CPUSeconds += e.Breakdown.CPUSeconds
		rows[i].Breakdown.PIMSeconds += e.Breakdown.PIMSeconds
		rows[i].Breakdown.CommSeconds += e.Breakdown.CommSeconds
		if e.Kind == KindRound {
			rows[i].Rounds++
		}
	}
	return rows
}

// WritePhaseBreakdown renders the (op, phase) rollup — the Fig. 6
// decomposition at phase granularity.
func (r *Recorder) WritePhaseBreakdown(w io.Writer) {
	rows := r.PhaseBreakdown()
	total, _ := r.Totals()
	fmt.Fprintf(w, "%-12s  %-14s  %10s  %10s  %10s  %10s  %6s  %7s\n",
		"op", "phase", "total us", "cpu us", "pim us", "comm us", "share", "rounds")
	for _, row := range rows {
		share := 0.0
		if total.Total() > 0 {
			share = row.Breakdown.Total() / total.Total()
		}
		fmt.Fprintf(w, "%-12s  %-14s  %10.2f  %10.2f  %10.2f  %10.2f  %5.1f%%  %7d\n",
			clip(row.Op, 12), clip(row.Phase, 14),
			row.Breakdown.Total()*1e6, row.Breakdown.CPUSeconds*1e6,
			row.Breakdown.PIMSeconds*1e6, row.Breakdown.CommSeconds*1e6,
			share*100, row.Rounds)
	}
}

// WriteCounters renders the counter registry in sorted order.
func (r *Recorder) WriteCounters(w io.Writer) {
	counters := r.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-28s  %12d\n", name, counters[name])
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}
