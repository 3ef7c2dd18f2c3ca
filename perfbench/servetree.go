package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

// serveSize fixes the serve-tree workload (pimzd-serve defaults).
type serveSize struct {
	Warm    int // warmup points
	Modules int
	WarmUp  int // points inserted by the untimed warm-up round
	LowRPS  float64
	HighRPS float64
	// MinStepReqs is the fewest requests a step offers, so that p99.9 has
	// ten samples beyond it.
	MinStepReqs int
	// The end-to-end modeled metrics cover Bursts backlog bursts of Burst
	// requests each.
	Burst, Bursts int
}

var fullServe = serveSize{Warm: 200_000, Modules: 512, WarmUp: 2_000, LowRPS: 8_000, HighRPS: 16_000,
	MinStepReqs: 10_000, Burst: 50_000, Bursts: 4}

const (
	serveKNNk = 8
	// Capacity criteria: a step is sustained when p99.9 stays within the
	// limit, at least 95% of the offered rate completes, under 1% is shed,
	// and the intake backlog does not grow over the step.
	capP999Limit = 250.0 // ms
	capAchieved  = 0.95
	capShed      = 0.01
	capTolerance = 1.10 // bisect until hi/lo <= 1.10, i.e. ±5%
	// engineMaxBatch is the engine's default coalesced-batch cap, which
	// pimzd-serve keeps. It is set explicitly so that a burst's expected
	// batch count is known.
	engineMaxBatch = 8192
	// serveSetups is how many times a run sets the engine up; setup_s is
	// the median. A set-up takes about 0.1 s, so a few more of them steady
	// the median for little time.
	serveSetups = 11
)

// sloObjectives are pimzd-serve's default -slo flag.
var sloObjectives = []metrics.SLOObjective{
	{Op: "search", LatencySeconds: 0.050, Target: 0.99},
	{Op: "insert", LatencySeconds: 0.050, Target: 0.99},
	{Op: "delete", LatencySeconds: 0.050, Target: 0.99},
	{Op: "knn", LatencySeconds: 0.100, Target: 0.99},
	{Op: "box", LatencySeconds: 0.100, Target: 0.99},
}

// backendStats is one backend op's accumulated calls.
type backendStats struct {
	calls, items int
	wall         float64
	pim          pim.Metrics
}

// timedBackend wraps the served backend and times every call the engine
// makes into the index, with its modeled-cost delta. The engine
// serializes backend calls.
type timedBackend struct {
	inner serve.Backend
	sys   *pim.System
	tr    *tracer // set only while a traced step runs

	mu    sync.Mutex
	ops   [numOps]backendStats
	calls []backendCall // traced calls, parented after the step
	// While hold is set, every call first signals entered (without
	// blocking) and then waits until hold is closed.
	hold, entered chan struct{}
}

type backendCall struct {
	span int32
	op   serve.Op
}

func (b *timedBackend) timed(op int, sop serve.Op, items int, fn func()) {
	b.mu.Lock()
	tr, hold, entered := b.tr, b.hold, b.entered
	b.mu.Unlock()
	if hold != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	}
	m0 := b.sys.Metrics()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	st := &b.ops[op]
	st.calls++
	st.items += items
	st.wall += t1.Sub(t0).Seconds()
	addPim(&st.pim, b.sys.Metrics().Sub(m0))
	if tr != nil {
		b.calls = append(b.calls, backendCall{tr.add("core."+coreOps[op], -1, t0, t1, 0, 2), sop})
	}
}

func (b *timedBackend) Dims() uint8 { return b.inner.Dims() }
func (b *timedBackend) SearchBatch(pts []geom.Point) (found []bool) {
	b.timed(opSearch, serve.OpSearch, len(pts), func() { found = b.inner.SearchBatch(pts) })
	return found
}
func (b *timedBackend) InsertBatch(pts []geom.Point) {
	b.timed(opInsert, serve.OpInsert, len(pts), func() { b.inner.InsertBatch(pts) })
}
func (b *timedBackend) DeleteBatch(pts []geom.Point) {
	b.timed(opDelete, serve.OpDelete, len(pts), func() { b.inner.DeleteBatch(pts) })
}
func (b *timedBackend) KNNBatch(pts []geom.Point, k int) (nbs [][]core.Neighbor) {
	b.timed(opKNN, serve.OpKNN, len(pts), func() { nbs = b.inner.KNNBatch(pts, k) })
	return nbs
}
func (b *timedBackend) BoxCountBatch(boxes []geom.Box) (counts []int64) {
	b.timed(opBoxCount, serve.OpBox, len(boxes), func() { counts = b.inner.BoxCountBatch(boxes) })
	return counts
}
func (b *timedBackend) Epoch() uint64 { return b.inner.Epoch() }

// setHold installs (or with nil, removes) the hold on backend calls.
func (b *timedBackend) setHold(hold, entered chan struct{}) {
	b.mu.Lock()
	b.hold, b.entered = hold, entered
	b.mu.Unlock()
}

// snapshot returns the accumulated op stats and clears them.
func (b *timedBackend) snapshot() [numOps]backendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.ops
	b.ops = [numOps]backendStats{}
	return s
}

// planned is one request of a step, built before the step starts.
type planned struct {
	due     time.Duration // offset from the step start
	req     *serve.Request
	warmIdx int // deletes: index of the warm point removed
}

// stepResult is what one open-loop step measured.
type stepResult struct {
	offered, achieved   float64
	n, ok, shed, failed int
	lat                 []float64 // ms from scheduled send, sorted; failures are +Inf
	byDue               []float64 // the same, in schedule order
	start               time.Time
	dues                []time.Duration // offsets from start
	stages              [][]float64
	late                []float64 // ms the generator sent after the due time
	queueMax            int64
	queueFirst          float64 // mean queued ops over the step's first third
	queueLast           float64 // and over its last third
	queueGrew           bool
	epochs              int64
	p50, p999           float64
}

func (s stepResult) sustained() bool {
	return s.p999 <= capP999Limit && s.achieved >= capAchieved*s.offered &&
		float64(s.shed) < capShed*float64(s.n) && !s.queueGrew
}

// serveRun is one serve-tree run: an engine over one tree plus the
// reference state the outputs are checked against.
type serveRun struct {
	size    serveSize
	seed    int64
	warm    []geom.Point
	knnQ    []geom.Point
	boxes   []geom.Box
	eng     *serve.Engine
	tree    *core.Tree
	be      *timedBackend

	nextID    uint64
	delCursor int // next warm index to delete; searches use the upper half
	steps     int
	removed   []bool       // warm points deleted by a completed request
	inserted  []geom.Point // points inserted by a completed request
	checkErr  error
}

func newServeRun(size serveSize, seed int64) *serveRun {
	warm := workload.Uniform(seed, size.Warm, dims)
	return &serveRun{
		size:    size,
		seed:    seed,
		warm:    warm,
		knnQ:    workload.QueryPoints(seed+3, warm, 20_000),
		boxes:   workload.QueryBoxes(seed+4, warm, 2_000, boxHits),
		removed: make([]bool, len(warm)),
	}
}

// setup builds the tree, runs the untimed warm-up round on it and starts
// the engine, wired as pimzd-serve wires it.
func (s *serveRun) setup() error {
	reg := metrics.New()
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(reg))
	rec.SetModuleSampling(32)
	fr := obs.NewFlightRecorder(obs.FlightConfig{Ring: 256, SlowK: 16})
	rec.SetFlight(fr)
	reqTracer := serve.NewRequestTracer(serve.RequestTraceConfig{SlowK: 16})
	slo := metrics.NewSLOTracker(metrics.SLOConfig{Objectives: sloObjectives, Registry: reg})

	s.tree = core.New(core.Config{Dims: dims, Machine: machine(s.size.Modules),
		Tuning: core.ThroughputOptimized, Obs: rec, LoadStats: true}, s.warm)
	if err := s.warmUp(); err != nil {
		return err
	}
	s.be = &timedBackend{inner: serve.NewTreeBackend(s.tree), sys: s.tree.System()}
	s.eng = serve.New(serve.Config{Backend: s.be, Mode: serve.ModePipeline, MaxK: 128, MaxBatch: engineMaxBatch,
		Registry: reg, Flight: fr, Requests: reqTracer, SLO: slo})
	return nil
}

// warmUp runs one batch round directly on the tree (it returns the tree
// to the warmup set) and fills the lazily built leaf lanes.
func (s *serveRun) warmUp() error {
	fresh := workload.Uniform(s.seed+2, s.size.WarmUp, dims)
	n := s.size.WarmUp / 10
	s.tree.Insert(fresh)
	s.tree.Search(fresh)
	s.tree.KNN(s.knnQ[:n], serveKNNk)
	s.tree.BoxCount(s.boxes[:n])
	s.tree.Delete(fresh)
	if s.tree.Size() != len(s.warm) {
		return fmt.Errorf("warm-up: size %d, want %d", s.tree.Size(), len(s.warm))
	}
	return nil
}

func (s *serveRun) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.eng.Shutdown(ctx)
}

// plan builds a step's Poisson arrivals and requests in the default mix
// (search 70 / insert 15 / delete 5 / kNN 8 / box 2).
func (s *serveRun) plan(rps float64, dur time.Duration) ([]planned, error) {
	s.steps++
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(s.steps)))
	n := int(rps * dur.Seconds())
	fresh := workload.Uniform(s.seed+1000+int64(s.steps), n/5+16, dims)
	half := len(s.warm) / 2
	out := make([]planned, 0, n)
	var at float64
	for len(out) < n {
		at += rng.ExpFloat64() / rps
		var p planned
		p.due = time.Duration(at * 1e9)
		p.warmIdx = -1
		switch v := rng.Intn(100); {
		case v < 70:
			p.req = serve.NewRequest(serve.OpSearch)
			p.req.Pts = []geom.Point{s.warm[half+rng.Intn(len(s.warm)-half)]}
		case v < 85:
			p.req = serve.NewRequest(serve.OpInsert)
			p.req.Pts = []geom.Point{fresh[0]}
			fresh = fresh[1:]
		case v < 90:
			if s.delCursor >= half {
				return nil, fmt.Errorf("delete pool of %d points exhausted", half)
			}
			p.req = serve.NewRequest(serve.OpDelete)
			p.warmIdx = s.delCursor
			p.req.Pts = []geom.Point{s.warm[s.delCursor]}
			s.delCursor++
		case v < 98:
			p.req = serve.NewRequest(serve.OpKNN)
			p.req.Pts = []geom.Point{s.knnQ[rng.Intn(len(s.knnQ))]}
			p.req.K = serveKNNk
		default:
			p.req = serve.NewRequest(serve.OpBox)
			p.req.Boxes = []geom.Box{s.boxes[rng.Intn(len(s.boxes))]}
		}
		s.nextID++
		p.req.ID = s.nextID
		out = append(out, p)
	}
	return out, nil
}

// validate checks one completed response's structure and records its
// effect on the reference state. Called from the collector only.
func (s *serveRun) validate(p *planned) error {
	r := p.req
	switch r.Op {
	case serve.OpSearch:
		if len(r.Resp.Found) != 1 || !r.Resp.Found[0] {
			return fmt.Errorf("search %v: found=%v, the point is never deleted", r.Pts[0], r.Resp.Found)
		}
	case serve.OpInsert, serve.OpDelete:
		if r.Resp.Applied != 1 {
			return fmt.Errorf("%s: applied %d, want 1", r.Op, r.Resp.Applied)
		}
		if r.Op == serve.OpInsert {
			s.inserted = append(s.inserted, r.Pts[0])
		} else {
			s.removed[p.warmIdx] = true
		}
	case serve.OpKNN:
		if len(r.Resp.Neighbors) != 1 || len(r.Resp.Neighbors[0]) != serveKNNk {
			return fmt.Errorf("knn: malformed response shape")
		}
		nbs := r.Resp.Neighbors[0]
		for i, nb := range nbs {
			if geom.DistL2Sq(nb.Point, r.Pts[0]) != nb.Dist || (i > 0 && core.NeighborLess(nb, nbs[i-1])) {
				return fmt.Errorf("knn %v: neighbor %d inconsistent or out of order", r.Pts[0], i)
			}
		}
	case serve.OpBox:
		if len(r.Resp.Counts) != 1 || r.Resp.Counts[0] < 0 {
			return fmt.Errorf("box: malformed count %v", r.Resp.Counts)
		}
	}
	return nil
}

// step offers plan open-loop from one dispatcher goroutine (this one)
// while one collector goroutine waits for completions. Every request is
// timed from its scheduled send time.
func (s *serveRun) step(rps float64, dur time.Duration, tr *tracer) (stepResult, error) {
	plan, err := s.plan(rps, dur)
	if err != nil {
		return stepResult{}, err
	}
	// Start from a collected heap, so garbage from set-up or the previous
	// step is not collected inside this one.
	runtime.GC()
	res := stepResult{offered: rps, n: len(plan), stages: make([][]float64, len(stageNames))}
	submitAt := make([]time.Time, len(plan))
	subErr := make([]error, len(plan))
	doneAt := make([]time.Time, len(plan))
	epochs0 := s.eng.Stats().EpochsRun

	// The channel holds every request of the step, so the dispatcher
	// never blocks on a slow collector.
	pending := make(chan int, len(plan))
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := range pending {
			r := plan[i].req
			<-r.Done()
			var total int64
			for _, ns := range r.Resp.StageNanos {
				total += ns
			}
			doneAt[i] = submitAt[i].Add(time.Duration(total))
			if r.Resp.Err != nil {
				continue
			}
			if err := s.validate(&plan[i]); err != nil && s.checkErr == nil {
				s.checkErr = err
			}
		}
	}()

	var queue []int64
	lastSample := time.Time{}
	start := time.Now()
	res.start = start
	for i := range plan {
		due := start.Add(plan[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if now.Sub(lastSample) >= 2*time.Millisecond {
			queue = append(queue, s.eng.Stats().QueuedOps)
			lastSample = now
		}
		submitAt[i] = now
		if err := s.eng.Submit(plan[i].req); err != nil {
			subErr[i] = err
			continue
		}
		pending <- i
	}
	close(pending)
	<-collected
	// Steady-state throughput: completions in the step's last two thirds
	// per second. The first third lets the pipeline fill; a growing
	// backlog completes less than was offered over the window.
	winLo, winHi := start.Add(dur/3), start.Add(dur)
	inWindow := 0
	for i := range plan {
		res.dues = append(res.dues, plan[i].due)
		res.byDue = append(res.byDue, math.Inf(1))
		if subErr[i] != nil {
			res.shed++
			continue
		}
		r := plan[i].req
		due := start.Add(plan[i].due)
		res.late = append(res.late, submitAt[i].Sub(due).Seconds()*1e3)
		if r.Resp.Err != nil {
			res.failed++
			continue
		}
		res.ok++
		res.byDue[i] = doneAt[i].Sub(due).Seconds() * 1e3
		if !doneAt[i].Before(winLo) && doneAt[i].Before(winHi) {
			inWindow++
		}
		for st, ns := range r.Resp.StageNanos {
			res.stages[st] = append(res.stages[st], float64(ns)/1e6)
		}
	}
	res.achieved = ratio(float64(inWindow), winHi.Sub(winLo).Seconds())
	res.epochs = s.eng.Stats().EpochsRun - epochs0
	res.lat = sortedCopy(res.byDue)
	sort.Float64s(res.late)
	for _, st := range res.stages {
		sort.Float64s(st)
	}
	res.p50 = quantile(res.lat, 0.5)
	res.p999 = tailQuantile(res.lat, 0.999)
	for _, q := range queue {
		res.queueMax = max(res.queueMax, q)
	}
	if third := len(queue) / 3; third > 0 {
		var first, last float64
		for i := 0; i < third; i++ {
			first += float64(queue[i])
			last += float64(queue[len(queue)-1-i])
		}
		res.queueFirst, res.queueLast = first/float64(third), last/float64(third)
		res.queueGrew = res.queueLast > 1.5*res.queueFirst+256
	}
	fmt.Fprintf(os.Stderr, "step %7.0f req/s: %d requests (%d ok, %d shed, %d failed), p50 %.2f ms, p99.9 %.2f ms, achieved %.0f/s, queue %.0f→%.0f, sustained %v\n",
		rps, res.n, res.ok, res.shed, res.failed, res.p50, res.p999, res.achieved, res.queueFirst, res.queueLast, res.sustained())
	if tr != nil {
		s.recordSpans(tr, plan, start, submitAt, subErr, doneAt)
	}
	// Drain before the next step so its backlog does not carry over.
	if err := s.eng.Barrier(context.Background()); err != nil {
		return res, fmt.Errorf("barrier: %w", err)
	}
	return res, s.checkErr
}

// spanSample keeps the span dump to tens of MB: one request in
// spanSample gets spans (about 100k requests run traced).
const spanSample = 8

// recordSpans adds a sampled request's span (scheduled send to
// completion) with its six stage spans, then parents each traced backend
// call to the exec stage of a sampled request it served; a call that
// served none stays a root.
func (s *serveRun) recordSpans(tr *tracer, plan []planned, start time.Time, submitAt []time.Time, subErr []error, doneAt []time.Time) {
	type execSpan struct {
		id         int32
		start, end int64
	}
	execs := map[serve.Op][]execSpan{}
	var laneEnd []int64
	for i := range plan {
		r := plan[i].req
		if subErr[i] != nil || r.Resp.Err != nil || r.ID%spanSample != 0 {
			continue
		}
		due := start.Add(plan[i].due)
		lane := -1
		for l, e := range laneEnd {
			if e <= tr.at(due) {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = tr.at(doneAt[i])
		rid := tr.add("request."+r.Op.String(), -1, due, doneAt[i], r.ID, int32(100+lane))
		t := submitAt[i]
		for st, ns := range r.Resp.StageNanos {
			next := t.Add(time.Duration(ns))
			id := tr.add("serve."+stageNames[st], rid, t, next, r.ID, int32(100+lane))
			if stageNames[st] == "exec" {
				execs[r.Op] = append(execs[r.Op], execSpan{id, tr.at(t), tr.at(next)})
			}
			t = next
		}
	}
	const slack = 50_000 // ns of skew between the engine's clock readings and ours
	s.be.mu.Lock()
	calls := s.be.calls
	s.be.calls = nil
	s.be.mu.Unlock()
	for _, c := range calls {
		es := execs[c.op]
		sort.Slice(es, func(a, b int) bool { return es[a].start < es[b].start })
		sp := tr.spans[c.span]
		j := sort.Search(len(es), func(k int) bool { return es[k].start > sp.Start+slack })
		for k := j - 1; k >= 0 && k >= j-256; k-- {
			if es[k].end+slack >= sp.End {
				tr.setParent(c.span, es[k].id)
				break
			}
		}
	}
}

// stepDur is a step's length: its share of the run, but long enough to
// offer minReqs requests.
func stepDur(share float64, rps float64, minReqs int) time.Duration {
	return time.Duration(max(share, float64(minReqs)/rps) * float64(time.Second))
}

// subSteps is how many interleaved pieces each fixed rate is offered in.
// A slow stretch of the machine then lands in one piece of one rate, not
// in a whole rate.
const subSteps = 9

// merge pools the sub-steps of one rate. Each piece offers at least
// MinStepReqs requests; p50 and p99.9 are the medians of the pieces'
// percentiles.
func merge(parts []stepResult) stepResult {
	m := stepResult{offered: parts[0].offered, achieved: math.Inf(1), stages: make([][]float64, len(stageNames))}
	var p50s, p999s []float64
	for _, p := range parts {
		m.n += p.n
		m.ok += p.ok
		m.shed += p.shed
		m.failed += p.failed
		m.epochs += p.epochs
		m.lat = append(m.lat, p.lat...)
		m.late = append(m.late, p.late...)
		for i := range m.stages {
			m.stages[i] = append(m.stages[i], p.stages[i]...)
		}
		m.queueMax = max(m.queueMax, p.queueMax)
		m.queueGrew = m.queueGrew || p.queueGrew
		m.achieved = min(m.achieved, p.achieved)
		p50s = append(p50s, p.p50)
		p999s = append(p999s, p.p999)
	}
	sort.Float64s(m.lat)
	sort.Float64s(m.late)
	for _, st := range m.stages {
		sort.Float64s(st)
	}
	m.p50 = median(p50s)
	m.p999 = median(p999s)
	return m
}

// runServe runs the serve-tree workload. Untraced, the end-to-end metrics
// come from backlog bursts, and fixed-rate steps fill the rest of the
// run; traced, the fixed-rate steps run untraced (latencies) and traced
// (stages, spans, per-call modeled cost), then the capacity search.
func runServe(size serveSize, seed int64, seconds float64, traced bool, tr *tracer) (*result, error) {
	s := newServeRun(size, seed)
	var setupS []float64
	for i := 0; i < serveSetups; i++ {
		if s.eng != nil {
			if err := s.shutdown(); err != nil {
				return nil, err
			}
			s.eng, s.tree, s.be = nil, nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep := &result{m: report{"setup_s": median(setupS)}}
	start := time.Now()

	// fixed offers the low and high rates, each in subSteps interleaved
	// pieces, over about budget seconds (two thirds at the low rate).
	fixed := func(t *tracer, budget float64) (low, high stepResult, ops [numOps]backendStats, err error) {
		s.be.snapshot()
		s.be.mu.Lock()
		s.be.tr = t
		s.be.mu.Unlock()
		defer func() {
			s.be.mu.Lock()
			s.be.tr = nil
			s.be.mu.Unlock()
		}()
		var lows, highs []stepResult
		for i := 0; i < subSteps; i++ {
			l, err := s.step(size.LowRPS, stepDur(budget*2/3/subSteps, size.LowRPS, size.MinStepReqs), t)
			if err != nil {
				return low, high, ops, err
			}
			h, err := s.step(size.HighRPS, stepDur(budget/3/subSteps, size.HighRPS, size.MinStepReqs), t)
			if err != nil {
				return low, high, ops, err
			}
			lows, highs = append(lows, l), append(highs, h)
		}
		return merge(lows), merge(highs), s.be.snapshot(), nil
	}
	var low, high stepResult
	if !traced {
		n, err := s.bursts(rep.m)
		if err != nil {
			return nil, err
		}
		rep.attempted += n
		if low, high, _, err = fixed(nil, seconds-time.Since(start).Seconds()); err != nil {
			return nil, err
		}
	} else {
		var err error
		if low, high, _, err = fixed(nil, 0.3*seconds); err != nil {
			return nil, err
		}
		tlow, thigh, tops, err := fixed(tr, 0.3*seconds)
		if err != nil {
			return nil, err
		}
		s.serveLayers(rep.m, low, high, tlow, thigh, tops)
		rep.m["obs.trace_overhead_frac"] = ratio(thigh.p50, high.p50) - 1
		if rep.m["serve.capacity_rps"], err = s.capacity(0.4 * seconds); err != nil {
			return nil, err
		}
	}
	if err := s.finalCheck(); err != nil {
		return nil, err
	}
	// Failures count on the bursts and the fixed-rate steps; the capacity
	// search offers overload on purpose, where shedding is the intended
	// response.
	rep.attempted += low.n + high.n
	rep.failed = low.shed + low.failed + high.shed + high.failed
	return rep, s.shutdown()
}

// bursts runs size.Bursts backlog bursts the engine cut into one epoch
// each and reports the end-to-end modeled metrics over their backend
// calls. It returns how many requests it offered.
func (s *serveRun) bursts(rep report) (int, error) {
	var ops [numOps]backendStats
	offered, intact := 0, 0
	for try := 0; intact < s.size.Bursts; try++ {
		if try == 4*s.size.Bursts {
			return offered, fmt.Errorf("only %d of %d bursts ran as one epoch", intact, try)
		}
		b, ok, err := s.burst(s.size.Burst)
		offered += s.size.Burst
		if err != nil {
			return offered, err
		}
		if !ok {
			continue
		}
		intact++
		for op := range ops {
			ops[op].calls += b[op].calls
			ops[op].items += b[op].items
			addPim(&ops[op].pim, b[op].pim)
		}
	}
	fmt.Fprintf(os.Stderr, "bursts: %d of %d ran as one epoch\n", intact, offered/s.size.Burst)
	var total float64
	for op, name := range modeledNames {
		rep[name] = ratio(float64(ops[op].items), ops[op].pim.TotalSeconds())
		total += ops[op].pim.TotalSeconds()
	}
	rep["modeled_s"] = total
	return offered, nil
}

// opIndex maps a served op to its index in coreOps.
func opIndex(op serve.Op) int {
	switch op {
	case serve.OpSearch:
		return opSearch
	case serve.OpInsert:
		return opInsert
	case serve.OpDelete:
		return opDelete
	case serve.OpKNN:
		return opKNN
	}
	return opBoxCount
}

// burst offers n requests in the default mix as one backlog and waits for
// all of them. A plug search is held inside the backend while two
// barriers take the pipeline's next two plans, so the engine coalesces
// the whole backlog into one epoch: the same batches on every run, whose
// modeled cost repeats for a seed. It returns the burst's backend stats,
// and false if the engine cut the backlog into more batches than one
// epoch makes (the barriers were not drained one at a time).
func (s *serveRun) burst(n int) ([numOps]backendStats, bool, error) {
	var ops [numOps]backendStats
	plan, err := s.plan(float64(n), time.Second)
	if err != nil {
		return ops, false, err
	}
	runtime.GC()
	s.be.snapshot()
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	s.be.setHold(hold, entered)
	release := func() {
		s.be.setHold(nil, nil)
		close(hold)
	}
	plug := serve.NewRequest(serve.OpSearch)
	plug.Pts = []geom.Point{s.warm[len(s.warm)-1]} // upper half: never deleted
	if err := s.eng.Submit(plug); err != nil {
		release()
		return ops, false, err
	}
	<-entered
	barriers := make(chan error, 2)
	for i := 0; i < cap(barriers); i++ {
		go func() { barriers <- s.eng.Barrier(context.Background()) }()
		time.Sleep(20 * time.Millisecond)
	}
	submitted := len(plan)
	var subErr error
	for i := range plan {
		if subErr = s.eng.Submit(plan[i].req); subErr != nil {
			submitted = i
			break
		}
	}
	release()
	<-plug.Done()
	err = subErr
	for i := 0; i < cap(barriers); i++ {
		if e := <-barriers; e != nil && err == nil {
			err = e
		}
	}
	var perOp [numOps]int
	for i := range plan[:submitted] {
		r := plan[i].req
		<-r.Done()
		perOp[opIndex(r.Op)]++
		if err == nil && r.Resp.Err != nil {
			err = fmt.Errorf("burst %s: %w", r.Op, r.Resp.Err)
		}
		if err == nil {
			err = s.validate(&plan[i])
		}
	}
	if err == nil && (plug.Resp.Err != nil || len(plug.Resp.Found) != 1 || !plug.Resp.Found[0]) {
		err = fmt.Errorf("burst plug search: found=%v, err=%v", plug.Resp.Found, plug.Resp.Err)
	}
	if err != nil {
		return ops, false, err
	}
	ops = s.be.snapshot()
	want, got := 1, 0 // the plug's search is one call
	for op := range ops {
		want += (perOp[op] + engineMaxBatch - 1) / engineMaxBatch
		got += ops[op].calls
	}
	return ops, got == want, nil
}

// finiteMS reports a latency percentile; when failed requests push it to
// +Inf, it reports the step's length, a lower bound on their latency.
func finiteMS(v float64, st stepResult) float64 {
	if math.IsInf(v, 1) {
		return float64(st.n) / st.offered * 1e3
	}
	return v
}

// capacity bisects the offered rate to ±5% for the highest sustained
// step: it doubles from the high fixed rate until a step fails (or halves
// until one holds), then bisects geometrically.
func (s *serveRun) capacity(budget float64) (float64, error) {
	lo, hi := 0.0, 0.0
	for i := 0; i < 16; i++ {
		var r float64
		switch {
		case lo == 0 && hi == 0:
			r = s.size.HighRPS
		case hi == 0:
			r = lo * 2
		case lo == 0:
			r = hi / 2
		case hi/lo <= capTolerance:
			return lo, nil
		default:
			r = math.Sqrt(lo * hi)
		}
		if r < 250 {
			return lo, nil
		}
		res, err := s.step(r, stepDur(budget/6, r, s.size.MinStepReqs), nil)
		if err != nil {
			return 0, err
		}
		if res.sustained() {
			lo = r
		} else {
			hi = r
		}
	}
	return lo, nil
}

// serveLayers derives the traced run's per-layer metrics.
// low and high are the untraced pass (end-to-end latency), tlow and thigh
// the traced one (stages).
func (s *serveRun) serveLayers(rep report, low, high, tlow, thigh stepResult, ops [numOps]backendStats) {
	p := float64(s.size.Modules)
	for op, name := range coreOps {
		st := ops[op]
		rep["core."+name+".busy_s"] = st.wall
		rep["core."+name+".calls"] = float64(st.calls)
		rep["core."+name+".items_per_call"] = ratio(float64(st.items), float64(st.calls))
		rep["core."+name+".items_per_s"] = ratio(float64(st.items), st.wall)
		rep["pim."+name+".rounds_per_call"] = ratio(float64(st.pim.Rounds), float64(st.calls))
		rep["pim."+name+".chan_bytes_per_item"] = ratio(float64(st.pim.ChannelBytes()), float64(st.items))
		rep["pim."+name+".util"] = ratio(float64(st.pim.PIMCycleTotal), p*float64(st.pim.PIMCycleSum))
		rep["pim."+name+".cpu_s"] = st.pim.CPUSeconds
		rep["pim."+name+".pim_s"] = st.pim.PIMSeconds
		rep["pim."+name+".comm_s"] = st.pim.CommSeconds
		rep["pim."+name+".wall_per_round_us"] = ratio(st.wall*1e6, float64(st.pim.Rounds))
	}
	var late []float64
	var queueMax int64
	for i, st := range []stepResult{tlow, thigh} {
		for j, name := range stageNames {
			rep["serve."+steps[i]+"."+name+".p50_ms"] = quantile(st.stages[j], 0.5)
			rep["serve."+steps[i]+"."+name+".p999_ms"] = tailQuantile(st.stages[j], 0.999)
		}
		rep["serve."+steps[i]+".samples"] = float64(st.n)
		late = append(late, st.late...)
		queueMax = max(queueMax, st.queueMax)
	}
	for i, st := range []stepResult{low, high} {
		rep["serve."+steps[i]+".p50_ms"] = finiteMS(st.p50, st)
		rep["serve."+steps[i]+".p999_ms"] = finiteMS(st.p999, st)
	}
	sort.Float64s(late)
	rep["serve.reqs_per_epoch"] = ratio(float64(tlow.ok+thigh.ok), float64(tlow.epochs+thigh.epochs))
	rep["serve.queue_ops_max"] = float64(queueMax)
	rep["serve.shed"] = float64(tlow.shed + thigh.shed)
	rep["serve.errors"] = float64(tlow.failed + thigh.failed)
	rep["serve.fence_violations"] = float64(s.eng.FenceViolations())
	rep["loadgen.late_p50_ms"] = quantile(late, 0.5)
	rep["loadgen.late_max_ms"] = quantile(late, 1)
}

// finalCheck drains the engine, then checks the fence counter, the stored
// multiset against the reference state, and a sample of reads served
// through the engine against brute force over that state.
func (s *serveRun) finalCheck() error {
	ctx := context.Background()
	if err := s.eng.Barrier(ctx); err != nil {
		return fmt.Errorf("final barrier: %w", err)
	}
	if v := s.eng.FenceViolations(); v != 0 {
		return fmt.Errorf("%d epoch fence violations", v)
	}
	var want []geom.Point
	for i, p := range s.warm {
		if !s.removed[i] {
			want = append(want, p)
		}
	}
	want = append(want, s.inserted...)
	if err := sameMultiset(s.tree.Points(), append([]geom.Point(nil), want...)); err != nil {
		return fmt.Errorf("stored points after the run: %w", err)
	}
	ref := pointSet{want}
	rng := rand.New(rand.NewSource(s.seed*13 + 7))
	for i := 0; i < 8; i++ {
		q := s.knnQ[rng.Intn(len(s.knnQ))]
		r := serve.NewRequest(serve.OpKNN)
		r.Pts, r.K = []geom.Point{q}, serveKNNk
		b := serve.NewRequest(serve.OpBox)
		b.Boxes = []geom.Box{s.boxes[rng.Intn(len(s.boxes))]}
		m := serve.NewRequest(serve.OpSearch)
		probe := s.warm[rng.Intn(len(s.warm))]
		m.Pts = []geom.Point{probe}
		for _, req := range []*serve.Request{r, b, m} {
			if err := s.eng.Do(ctx, req); err != nil {
				return fmt.Errorf("final %s: %w", req.Op, err)
			}
		}
		if err := ref.checkKNN(q, serveKNNk, r.Resp.Neighbors[0]); err != nil {
			return err
		}
		if err := ref.checkBoxCount(b.Boxes[0], b.Resp.Counts[0]); err != nil {
			return err
		}
		if err := ref.checkMember(probe, m.Resp.Found[0]); err != nil {
			return err
		}
	}
	return nil
}
