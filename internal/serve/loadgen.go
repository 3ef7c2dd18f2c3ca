package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/stats"
)

// Open-loop saturation load generator. Arrivals follow a Poisson process
// at the offered rate — the generator does NOT wait for responses before
// the next arrival, so queueing delay cannot throttle the offered load
// (the classic closed-loop measurement bug that hides saturation). At
// each offered-load step it records completed/shed counts and the
// end-to-end latency distribution; the report marks the highest step the
// engine sustained (shed < 1%, achieved ≥ 95% of offered).

// OpMix weights the per-request operation draw. Weights are relative;
// zero disables an op. K is the kNN neighbor count.
type OpMix struct {
	SearchW, InsertW, DeleteW, KNNW, BoxW int
	K                                     int
}

// DefaultMix is a read-heavy serving mix.
func DefaultMix() OpMix {
	return OpMix{SearchW: 70, InsertW: 15, DeleteW: 5, KNNW: 8, BoxW: 2, K: 8}
}

// mixOps lists the ops an OpMix weights, in draw and String order.
var mixOps = [...]Op{OpSearch, OpInsert, OpDelete, OpKNN, OpBox}

// weights returns the weight fields, index-aligned with mixOps.
func (m *OpMix) weights() [len(mixOps)]*int {
	return [...]*int{&m.SearchW, &m.InsertW, &m.DeleteW, &m.KNNW, &m.BoxW}
}

func (m OpMix) total() int {
	t := 0
	for _, w := range m.weights() {
		t += *w
	}
	return t
}

// String renders the weights in ParseMix syntax, e.g.
// "search=70,insert=15,delete=5,knn=8,box=2".
func (m OpMix) String() string {
	parts := make([]string, len(mixOps))
	for i, w := range m.weights() {
		parts[i] = fmt.Sprintf("%s=%d", mixOps[i], *w)
	}
	return strings.Join(parts, ",")
}

// ParseMix parses comma-separated op=weight entries (ops: search, insert,
// delete, knn, box) into a mix whose kNN requests ask for k neighbors.
// Unlisted ops weigh zero and a repeated op adds up. It rejects malformed
// entries, unknown ops, negative weights, a zero total, and a kNN weight
// with k < 1 (every such request would be refused as a bad request).
func ParseMix(s string, k int) (OpMix, error) {
	m := OpMix{K: k}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		name = strings.TrimSpace(name)
		var w *int
		for i, op := range mixOps {
			if op.String() == name {
				w = m.weights()[i]
			}
		}
		if w == nil {
			return m, fmt.Errorf("unknown op %q in mix", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return m, fmt.Errorf("bad weight %q for %s", val, name)
		}
		*w += n
	}
	if m.total() == 0 {
		return m, fmt.Errorf("mix has zero total weight")
	}
	if m.KNNW > 0 && m.K < 1 {
		return m, fmt.Errorf("mix has a knn weight but k=%d (want k >= 1)", m.K)
	}
	return m, nil
}

// draw picks an op by weight.
func (m OpMix) draw(rng *rand.Rand) Op {
	n := rng.Intn(m.total())
	for i, w := range m.weights() {
		if n -= *w; n < 0 {
			return mixOps[i]
		}
	}
	return OpBox
}

// Request draws one request: an op by weight, then for a box op one box
// from boxes (a search instead when boxes is empty), otherwise batch
// points from pick, with K set for kNN. pick is the caller's key
// distribution (uniform or skewed over its point pool).
func (m OpMix) Request(rng *rand.Rand, batch int, pick func() geom.Point, boxes []geom.Box) *Request {
	op := m.draw(rng)
	if op == OpBox && len(boxes) == 0 {
		op = OpSearch
	}
	r := NewRequest(op)
	if op == OpBox {
		r.Boxes = []geom.Box{boxes[rng.Intn(len(boxes))]}
		return r
	}
	r.Pts = make([]geom.Point, batch)
	for i := range r.Pts {
		r.Pts[i] = pick()
	}
	if op == OpKNN {
		r.K = m.K
	}
	return r
}

// SaturationConfig parameterizes one sweep.
type SaturationConfig struct {
	Engine *Engine
	// Seed fixes the RNG that drives arrivals and op/point draws.
	Seed int64
	// Data is the point pool queries and updates draw from (required).
	Data []geom.Point
	// Boxes is the box pool (required if Mix.BoxW > 0).
	Boxes []geom.Box
	// Mix weights the operations (zero value = DefaultMix).
	Mix OpMix
	// Offered is the sweep: offered load steps in requests/second.
	Offered []float64
	// StepDuration is how long each step runs.
	StepDuration time.Duration
	// BatchSize is points per request (default 1 — coalescing is the
	// engine's job, not the client's).
	BatchSize int
}

// LoadPoint is one offered-load step's measurement.
type LoadPoint struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Completed   int     `json:"completed"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	P50         float64 `json:"p50_seconds"`
	P99         float64 `json:"p99_seconds"`
	P999        float64 `json:"p999_seconds"`
}

// Sustained reports whether the step absorbed its offered load: shedding
// stayed under 1% and completions kept up with arrivals (≥ 95%).
func (p LoadPoint) Sustained() bool {
	total := p.Completed + p.Shed + p.Errors
	if total == 0 {
		return false
	}
	return float64(p.Shed)/float64(total) < 0.01 && p.AchievedRPS >= 0.95*p.OfferedRPS
}

// SaturationReport is the sweep result.
type SaturationReport struct {
	Mode            string      `json:"mode"`
	Points          []LoadPoint `json:"points"`
	MaxSustainedRPS float64     `json:"max_sustained_rps"`
}

// pendingReq tracks an in-flight request's submit time.
type pendingReq struct {
	r     *Request
	start time.Time
}

// RunSaturation sweeps the offered-load steps against cfg.Engine.
func RunSaturation(cfg SaturationConfig) SaturationReport {
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Mix.K <= 0 {
		cfg.Mix.K = DefaultMix().K
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	report := SaturationReport{Mode: cfg.Engine.cfg.Mode.String()}
	for i, rps := range cfg.Offered {
		pt := runStep(cfg, rps, cfg.Seed+int64(i)*7919)
		report.Points = append(report.Points, pt)
		if pt.Sustained() && pt.AchievedRPS > report.MaxSustainedRPS {
			report.MaxSustainedRPS = pt.AchievedRPS
		}
	}
	return report
}

// runStep runs one offered-load step: a dispatcher submits on the
// Poisson schedule while a collector awaits completions, so waiting
// never delays arrivals.
func runStep(cfg SaturationConfig, rps float64, seed int64) LoadPoint {
	rng := rand.New(rand.NewSource(seed))
	pick := func() geom.Point { return cfg.Data[rng.Intn(len(cfg.Data))] }
	pt := LoadPoint{OfferedRPS: rps}

	pending := make(chan pendingReq, 1<<16)
	latencies := make([]float64, 0, int(rps*cfg.StepDuration.Seconds())+16)
	errs := 0
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for pr := range pending {
			<-pr.r.Done()
			if pr.r.Resp.Err != nil {
				errs++
				continue
			}
			latencies = append(latencies, time.Since(pr.start).Seconds())
		}
	}()

	start := time.Now()
	deadline := start.Add(cfg.StepDuration)
	next := start
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		r := cfg.Mix.Request(rng, cfg.BatchSize, pick, cfg.Boxes)
		submitAt := time.Now()
		if err := cfg.Engine.Submit(r); err != nil {
			pt.Shed++
		} else {
			pending <- pendingReq{r: r, start: submitAt}
		}
		// Poisson arrivals: exponential inter-arrival, scheduled on an
		// absolute timeline so a slow Submit bursts to catch up instead
		// of silently lowering the offered rate.
		next = next.Add(time.Duration(rng.ExpFloat64() / rps * float64(time.Second)))
	}
	close(pending)
	<-collectorDone

	elapsed := time.Since(start).Seconds()
	pt.Completed = len(latencies)
	pt.Errors = errs
	pt.AchievedRPS = float64(pt.Completed) / elapsed
	sort.Float64s(latencies)
	pt.P50 = stats.Quantile(latencies, 0.50)
	pt.P99 = stats.Quantile(latencies, 0.99)
	pt.P999 = stats.Quantile(latencies, 0.999)
	return pt
}
