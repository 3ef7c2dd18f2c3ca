package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

// batchSize fixes the round shape of the batch workloads.
type batchSize struct {
	Warm, Insert, KNN, Boxes, Fetch int
	// Indexes is how many indexes a run builds, each over its own warmup
	// set; setup_s is the median of their set-up times. A seed's modeled
	// costs depend on how its warmup set lays out over the modules (and on
	// skew-sharded, on where the rebalancer moved the cuts), so the timed
	// rounds are spread over all of them.
	Indexes int
	// Fixed is the number of timed rounds on each of the run's indexes,
	// each with its own inputs. They are behind the end-to-end modeled
	// metrics and the pim.* counts: a fixed op sequence, so those repeat
	// exactly per seed. Rounds after them, on the last index, cycle
	// through its inputs again (each round deletes what it inserted, so
	// the index returns to its warmup set between rounds).
	Fixed int
}

var (
	uniformBatch = batchSize{Warm: 1_000_000, Insert: 20_000, KNN: 2_000, Boxes: 2_000, Fetch: 1_000,
		Indexes: 5, Fixed: 6}
	// Skewed inputs vary more from seed to seed, so they get more indexes.
	skewBatch = batchSize{Warm: 1_000_000, Insert: 20_000, KNN: 2_000, Boxes: 2_000, Fetch: 1_000,
		Indexes: 8, Fixed: 6}
)

const (
	batchK  = 10  // kNN k in the rounds
	boxHits = 100 // expected points per query box
	dims    = 3
)

// Op indexes into coreOps.
const (
	opInsert = iota
	opDelete
	opSearch
	opKNN
	opBoxCount
	opBoxFetch
	numOps
)

// batchIndex is the surface the round loop calls: core.Tree for
// uniform-batch, shard.Index for skew-sharded.
type batchIndex interface {
	insert(pts []geom.Point)
	remove(pts []geom.Point)
	// search runs the batch search and returns a membership test that is
	// evaluated after the call's timing ends.
	search(pts []geom.Point) func(i int) bool
	knn(q []geom.Point, k int) [][]core.Neighbor
	boxCount(b []geom.Box) []int64
	boxFetch(b []geom.Box) [][]geom.Point
	size() int
	metrics() pim.Metrics
	// rebalances counts repartitions so far (0 unsharded).
	rebalances() int64
	// takeFanout returns the last call's per-shard report (nil unsharded).
	takeFanout() *obs.FanoutReport
}

type treeIndex struct{ t *core.Tree }

func (x treeIndex) insert(pts []geom.Point) { x.t.Insert(pts) }
func (x treeIndex) remove(pts []geom.Point) { x.t.Delete(pts) }
func (x treeIndex) search(pts []geom.Point) func(int) bool {
	res := x.t.Search(pts)
	return func(i int) bool {
		term := res[i].Terminal
		if term == nil || !term.IsLeaf() {
			return false
		}
		key := morton.EncodePoint(pts[i])
		for j, k := range term.Keys {
			if k == key && term.Pts[j].Equal(pts[i]) {
				return true
			}
		}
		return false
	}
}
func (x treeIndex) knn(q []geom.Point, k int) [][]core.Neighbor { return x.t.KNN(q, k) }
func (x treeIndex) boxCount(b []geom.Box) []int64               { return x.t.BoxCount(b) }
func (x treeIndex) boxFetch(b []geom.Box) [][]geom.Point        { return x.t.BoxFetch(b) }
func (x treeIndex) size() int                                   { return x.t.Size() }
func (x treeIndex) metrics() pim.Metrics                        { return x.t.System().Metrics() }
func (x treeIndex) rebalances() int64                           { return 0 }
func (x treeIndex) takeFanout() *obs.FanoutReport               { return nil }

type shardIndex struct{ x *shard.Index }

func (s shardIndex) insert(pts []geom.Point) { s.x.InsertBatch(pts) }
func (s shardIndex) remove(pts []geom.Point) { s.x.DeleteBatch(pts) }
func (s shardIndex) search(pts []geom.Point) func(int) bool {
	found := s.x.SearchBatch(pts)
	return func(i int) bool { return found[i] }
}
func (s shardIndex) knn(q []geom.Point, k int) [][]core.Neighbor { return s.x.KNNBatch(q, k) }
func (s shardIndex) boxCount(b []geom.Box) []int64               { return s.x.BoxCountBatch(b) }
func (s shardIndex) boxFetch([]geom.Box) [][]geom.Point {
	panic("shard.Index has no box fetch")
}
func (s shardIndex) size() int                     { return s.x.Size() }
func (s shardIndex) metrics() pim.Metrics          { return s.x.Metrics() }
func (s shardIndex) rebalances() int64             { return s.x.Rebalances() }
func (s shardIndex) takeFanout() *obs.FanoutReport { return s.x.TakeFanout() }

// roundInput is one round's pre-generated batches.
type roundInput struct {
	ins   []geom.Point // fresh points, inserted then deleted
	query []geom.Point // search batch: half ins (present), half near-data
	knnQ  []geom.Point
	boxes []geom.Box
	fetch []geom.Box
}

// batchWorkload describes one of the two batch workloads.
type batchWorkload struct {
	sharded bool
	size    batchSize
	modules int
}

func machine(p int) costmodel.Machine {
	m := costmodel.UPMEMServer()
	m.PIMModules = p
	return m
}

// build constructs the index over the warmup points.
func (w batchWorkload) build(warm []geom.Point) (batchIndex, *shard.Index) {
	if !w.sharded {
		return treeIndex{core.New(core.Config{Dims: dims, Machine: machine(w.modules),
			Tuning: core.ThroughputOptimized}, warm)}, nil
	}
	// As pimzd-serve -trees 4 runs it: skew-resistant tuning, load stats
	// and rebalancing on.
	x := shard.New(shard.Config{Trees: 4, Dims: dims, Machine: machine(w.modules),
		Tuning: core.SkewResistant, LoadStats: true, Rebalance: true}, warm)
	return shardIndex{x}, x
}

// inputs generates the warmup set and every round's batches from seed.
func (w batchWorkload) inputs(seed int64) ([]geom.Point, []roundInput) {
	sz := w.size
	warm := workload.Uniform(seed, sz.Warm, dims)
	var fresh []geom.Point
	if w.sharded {
		fresh = workload.Varden(seed+1, sz.Fixed*sz.Insert, dims)
	} else {
		fresh = workload.Uniform(seed+1, sz.Fixed*sz.Insert, dims)
	}
	in := make([]roundInput, sz.Fixed)
	for r := range in {
		s := seed + int64(r)*16
		ins := fresh[r*sz.Insert : (r+1)*sz.Insert]
		// Queries follow the stored data: uniform for uniform-batch; on
		// skew-sharded, the Varden filaments the round just inserted, so
		// reads hit the hot shard as the inserts do.
		dist := warm
		if w.sharded {
			dist = ins
		}
		query := append(append([]geom.Point(nil), ins[:sz.Insert/2]...),
			workload.QueryPoints(s+2, dist, sz.Insert-sz.Insert/2)...)
		in[r] = roundInput{
			ins:   ins,
			query: query,
			knnQ:  workload.QueryPoints(s+3, dist, sz.KNN),
			boxes: workload.QueryBoxes(s+4, dist, sz.Boxes, boxHits),
		}
		if !w.sharded {
			in[r].fetch = workload.QueryBoxes(s+5, dist, sz.Fetch, boxHits)
		}
	}
	return warm, in
}

// opStats accumulates one operation's calls.
type opStats struct {
	calls, items int
	wall         float64 // seconds inside the calls

	// Traced runs only.
	pimAll                 pim.Metrics // every traced call
	pimFixed               pim.Metrics // calls of the fixed rounds
	callsFixed, itemsFixed int
	// Fixed-round calls that repartitioned a sharded index: their modeled
	// cost is mostly migration, set by how the seed's filaments fall, so
	// it counts in modeled_s but not in the op's modeled throughput.
	pimRebalance pim.Metrics
	shardCalls, shardItems int     // per-shard children (sharded)
	shardWall              float64 // their summed wall
	routerSelf             float64 // call wall minus its slowest shard
	maxShard, meanShard    float64
	perQuery, pruned       int
}

// batchRun drives rounds against one index.
type batchRun struct {
	w    batchWorkload
	idx  batchIndex
	warm []geom.Point
	in   []roundInput
	seed    int64
	tr      *tracer
	ops     [numOps]opStats
	inFixed bool
}

func addPim(a *pim.Metrics, d pim.Metrics) {
	a.Rounds += d.Rounds
	a.BytesToPIM += d.BytesToPIM
	a.BytesFromPIM += d.BytesFromPIM
	a.PIMCycleSum += d.PIMCycleSum
	a.PIMCycleTotal += d.PIMCycleTotal
	a.CPUWork += d.CPUWork
	a.CPUTraffic += d.CPUTraffic
	a.CPUChase += d.CPUChase
	a.CPUSeconds += d.CPUSeconds
	a.PIMSeconds += d.PIMSeconds
	a.CommSeconds += d.CommSeconds
}

// call times fn as one call of op carrying items. In the fixed rounds it
// adds the call's modeled-cost delta to the op; when tracing, it also
// records the call's span and per-shard children.
func (b *batchRun) call(op, items int, parent int32, fn func()) {
	modeled := b.inFixed || b.tr != nil
	var m0 pim.Metrics
	var reb0 int64
	if modeled {
		m0, reb0 = b.idx.metrics(), b.idx.rebalances()
	}
	t0 := time.Now()
	fn()
	t1 := time.Now()
	st := &b.ops[op]
	d := t1.Sub(t0).Seconds()
	st.calls++
	st.items += items
	st.wall += d
	if !modeled {
		return
	}
	dm := b.idx.metrics().Sub(m0)
	if b.inFixed && b.idx.rebalances() != reb0 {
		addPim(&st.pimRebalance, dm)
	} else if b.inFixed {
		addPim(&st.pimFixed, dm)
		st.callsFixed++
		st.itemsFixed += items
	}
	if b.tr == nil {
		return
	}
	addPim(&st.pimAll, dm)
	layer := "core."
	if b.w.sharded {
		layer = "shard."
	}
	id := b.tr.add(layer+coreOps[op], parent, t0, t1, 0, 1)
	rep := b.idx.takeFanout()
	if rep == nil || len(rep.Shards) == 0 {
		return
	}
	var slowest, sum float64
	for _, sp := range rep.Shards {
		end := t0.Add(time.Duration(sp.WallSeconds * 1e9))
		b.tr.add("core."+coreOps[op], id, t0, end, 0, int32(10+sp.Shard))
		slowest = max(slowest, sp.WallSeconds)
		sum += sp.WallSeconds
		st.shardCalls++
		st.shardItems += sp.Queries
	}
	st.shardWall += sum
	st.routerSelf += d - slowest
	st.maxShard += slowest
	st.meanShard += sum / float64(len(rep.Shards))
	for _, n := range rep.PerQuery {
		st.perQuery += int(n)
	}
	st.pruned += rep.Pruned
}

// round runs insert → search → kNN → box-count → box-fetch → delete. With
// check set, outputs are verified against brute force outside the timed
// calls.
func (b *batchRun) round(r int, check bool) error {
	in := &b.in[r%len(b.in)]
	var rid int32 = -1
	var rstart time.Time
	if b.tr != nil {
		rstart = time.Now()
		rid = b.tr.add("round", -1, rstart, rstart, 0, 1)
	}
	base := b.idx.size()
	ref := pointSet{b.warm, in.ins}
	rng := rand.New(rand.NewSource(b.seed*7919 + int64(r)))

	b.call(opInsert, len(in.ins), rid, func() { b.idx.insert(in.ins) })
	if got, want := b.idx.size(), base+len(in.ins); got != want {
		return fmt.Errorf("round %d: size %d after insert, want %d", r, got, want)
	}

	var member func(int) bool
	b.call(opSearch, len(in.query), rid, func() { member = b.idx.search(in.query) })
	var knn [][]core.Neighbor
	b.call(opKNN, len(in.knnQ), rid, func() { knn = b.idx.knn(in.knnQ, batchK) })
	var counts []int64
	b.call(opBoxCount, len(in.boxes), rid, func() { counts = b.idx.boxCount(in.boxes) })
	var fetched [][]geom.Point
	if in.fetch != nil {
		b.call(opBoxFetch, len(in.fetch), rid, func() { fetched = b.idx.boxFetch(in.fetch) })
	}
	if check {
		if err := b.checkReads(rng, ref, in, member, knn, counts, fetched); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}

	b.call(opDelete, len(in.ins), rid, func() { b.idx.remove(in.ins) })
	if got := b.idx.size(); got != base {
		return fmt.Errorf("round %d: size %d after delete, want %d", r, got, base)
	}
	if b.tr != nil {
		b.tr.mu.Lock()
		b.tr.spans[rid].End = b.tr.at(time.Now())
		b.tr.mu.Unlock()
	}
	return nil
}

// checkReads verifies the round's read results: every inserted point is
// found, and a seeded sample of the rest matches brute force.
func (b *batchRun) checkReads(rng *rand.Rand, ref pointSet, in *roundInput, member func(int) bool,
	knn [][]core.Neighbor, counts []int64, fetched [][]geom.Point) error {
	half := len(in.ins) / 2
	for i := 0; i < half; i++ {
		if !member(i) {
			return fmt.Errorf("search: inserted point %v not found", in.query[i])
		}
	}
	if len(knn) != len(in.knnQ) || len(counts) != len(in.boxes) || len(fetched) != len(in.fetch) {
		return fmt.Errorf("result lengths %d/%d/%d, want %d/%d/%d",
			len(knn), len(counts), len(fetched), len(in.knnQ), len(in.boxes), len(in.fetch))
	}
	for s := 0; s < 4; s++ {
		i := half + rng.Intn(len(in.query)-half)
		if err := ref.checkMember(in.query[i], member(i)); err != nil {
			return err
		}
	}
	for s := 0; s < 2; s++ {
		i := rng.Intn(len(in.knnQ))
		if err := ref.checkKNN(in.knnQ[i], batchK, knn[i]); err != nil {
			return err
		}
		j := rng.Intn(len(in.boxes))
		if err := ref.checkBoxCount(in.boxes[j], counts[j]); err != nil {
			return err
		}
	}
	if len(in.fetch) > 0 {
		i := rng.Intn(len(in.fetch))
		if err := ref.checkBoxFetch(in.fetch[i], fetched[i]); err != nil {
			return err
		}
	}
	return nil
}

// runBatch runs one batch workload and reports its end-to-end metrics, or
// with traced set its per-layer metrics.
func runBatch(w batchWorkload, seed int64, seconds float64, traced bool, tr *tracer) (*result, error) {
	b := &batchRun{w: w, seed: seed}
	rep := report{}
	var setupS, imbalance []float64
	var rebalances, migrated int64
	var sx *shard.Index
	start := time.Now()
	budget := seconds
	if traced {
		budget = seconds / 2 // the rest re-runs as many rounds untraced
	}
	r := 1
	for i := 0; i < w.size.Indexes; i++ {
		// Inputs of index i: seeds base, base+1, … base+5+16*Fixed.
		b.warm, b.in = w.inputs(seed*10_000 + int64(i)*1_000)
		// Set up: build, then one untimed warm-up round, which also fills
		// the lazily built leaf lanes before anything is timed.
		ops, tr0 := b.ops, b.tr
		b.idx, sx, b.tr = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		b.idx, sx = w.build(b.warm)
		if err := b.round(0, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		b.ops, b.tr = ops, tr0
		if traced {
			b.tr = tr
			if sx != nil {
				sx.SetFanoutCapture(true)
			}
		}

		var reb0, mig0 int64
		if sx != nil {
			reb0, mig0 = sx.Rebalances(), sx.MigratedPoints()
		}
		last := i == w.size.Indexes-1
		b.inFixed = true
		for n := 1; n <= w.size.Fixed || (last && time.Since(start).Seconds() < budget); n, r = n+1, r+1 {
			// Each round starts from a collected heap, so garbage from one
			// round is not collected inside the next one's timed calls.
			runtime.GC()
			if err := b.round(n, true); err != nil {
				return nil, fmt.Errorf("index %d: %w", i, err)
			}
			if n == w.size.Fixed {
				b.inFixed = false
				if sx != nil {
					imbalance = append(imbalance, sx.Imbalance())
					rebalances += sx.Rebalances() - reb0
					migrated += sx.MigratedPoints() - mig0
				}
			}
		}
	}
	rep["setup_s"] = median(setupS)
	if sx != nil {
		rep["shard.imbalance"] = median(imbalance)
		rep["shard.rebalances"] = float64(rebalances)
		rep["shard.migrated_points"] = float64(migrated)
	}

	// Any failed call or check returns an error above, so a finished run
	// has no failures.
	res := &result{m: rep, attempted: b.callCount()}
	if !traced {
		var total float64
		for op := range b.ops {
			st := &b.ops[op]
			total += st.pimFixed.TotalSeconds() + st.pimRebalance.TotalSeconds()
			if name, ok := modeledNames[op]; ok {
				rep[name] = ratio(float64(st.itemsFixed), st.pimFixed.TotalSeconds())
			}
		}
		rep["modeled_s"] = total
		return res, nil
	}

	tracedWall := b.callWall()
	lr := b.layerMetrics(sx != nil)
	// As many rounds again on the last index with tracing off: the
	// overhead share.
	b.tr = nil
	if sx != nil {
		sx.SetFanoutCapture(false)
	}
	b.ops = [numOps]opStats{}
	for n := 1; n < r; n++ {
		runtime.GC()
		if err := b.round(n, true); err != nil {
			return nil, err
		}
	}
	lr["obs.trace_overhead_frac"] = tracedWall/b.callWall() - 1
	for k, v := range lr {
		rep[k] = v
	}
	res.attempted += b.callCount()
	return res, nil
}

func (b *batchRun) callWall() float64 {
	var s float64
	for i := range b.ops {
		s += b.ops[i].wall
	}
	return s
}

func (b *batchRun) callCount() int {
	n := 0
	for i := range b.ops {
		n += b.ops[i].calls
	}
	return n
}

// layerMetrics derives the core.*, pim.* and shard.* metrics of a traced
// pass.
func (b *batchRun) layerMetrics(sharded bool) report {
	rep := report{}
	p := float64(b.w.modules)
	for op, name := range coreOps {
		st := &b.ops[op]
		busy, calls, items := st.wall, st.calls, st.items
		if sharded {
			busy, calls, items = st.shardWall, st.shardCalls, st.shardItems
		}
		rep["core."+name+".busy_s"] = busy
		rep["core."+name+".calls"] = float64(calls)
		rep["core."+name+".items_per_call"] = ratio(float64(items), float64(calls))
		rep["core."+name+".items_per_s"] = ratio(float64(items), busy)

		f := st.pimFixed
		rep["pim."+name+".rounds_per_call"] = ratio(float64(f.Rounds), float64(st.callsFixed))
		rep["pim."+name+".chan_bytes_per_item"] = ratio(float64(f.ChannelBytes()), float64(st.itemsFixed))
		rep["pim."+name+".util"] = ratio(float64(f.PIMCycleTotal), p*float64(f.PIMCycleSum))
		rep["pim."+name+".cpu_s"] = f.CPUSeconds
		rep["pim."+name+".pim_s"] = f.PIMSeconds
		rep["pim."+name+".comm_s"] = f.CommSeconds
		rep["pim."+name+".wall_per_round_us"] = ratio(st.wall*1e6, float64(st.pimAll.Rounds))

		if !sharded || op == opBoxFetch {
			continue
		}
		rep["shard."+name+".busy_s"] = st.wall
		rep["shard."+name+".router_self_s"] = st.routerSelf
		rep["shard."+name+".straggler_ratio"] = ratio(st.maxShard, st.meanShard)
	}
	if sharded {
		var reb float64
		for i := range b.ops {
			reb += b.ops[i].pimRebalance.TotalSeconds()
		}
		rep["shard.rebalance_modeled_s"] = reb
		rep["shard.knn.fanout_per_query"] = ratio(float64(b.ops[opKNN].perQuery), float64(b.ops[opKNN].items))
		rep["shard.box_count.fanout_per_query"] = ratio(float64(b.ops[opBoxCount].perQuery), float64(b.ops[opBoxCount].items))
		kn := &b.ops[opKNN]
		rep["shard.knn.prune_frac"] = ratio(float64(kn.pruned), float64(kn.pruned+kn.perQuery))
	}
	return rep
}
