// Package pimzdtree is the public API of the PIM-zd-tree reproduction: a
// batch-dynamic space-partitioning index designed for processing-in-memory
// (PIM) systems, after "PIM-zd-tree: A Fast Space-Partitioning Index
// Leveraging Processing-in-Memory" (PPoPP 2026).
//
// Because no PIM hardware is attached, the index runs on a deterministic
// simulator of the PIM Model (host CPU + P PIM modules executing in
// bulk-synchronous rounds); every operation reports PIM-Model cost metrics
// (communication rounds, channel bytes, per-module work) and a modeled
// execution time derived from a calibrated machine model of the paper's
// UPMEM server.
//
// Basic usage:
//
//	idx := pimzdtree.New(pimzdtree.Options{Dims: 3})
//	idx.Insert(points)                      // batch insert
//	nbrs := idx.KNN(queries, 10)            // exact k nearest neighbors
//	counts := idx.BoxCount(boxes)           // orthogonal range counts
//	m := idx.Metrics()                      // PIM-Model cost counters
//
// The two configurations of the paper's Table 2 are available as
// ThroughputOptimized (default) and SkewResistant.
package pimzdtree

import (
	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/pim"
)

// Re-exported geometric types: the index stores Points and answers queries
// over Boxes under Metric distances.
type (
	// Point is a multi-dimensional point with uint32 coordinates.
	Point = geom.Point
	// Box is a closed axis-aligned query box.
	Box = geom.Box
	// Neighbor is one kNN result (Dist is the squared l2 distance).
	Neighbor = core.Neighbor
	// Metrics is the PIM-Model cost snapshot of the underlying system.
	Metrics = pim.Metrics
	// Machine is the analytic machine model used to convert counted
	// work and traffic into modeled seconds.
	Machine = costmodel.Machine
	// Metric selects a distance metric for kNN queries.
	Metric = geom.Metric
)

// The supported distance metrics. L2 distances are reported squared
// (monotone in the true distance; comparisons are unaffected).
const (
	L1   = geom.L1
	L2   = geom.L2
	LInf = geom.LInf
)

// P2, P3 and P4 construct 2-, 3- and 4-dimensional points.
var (
	P2 = geom.P2
	P3 = geom.P3
	P4 = geom.P4
)

// NewBox constructs a closed box from two corner points.
func NewBox(lo, hi Point) Box { return geom.NewBox(lo, hi) }

// Tuning selects the index configuration (Table 2 of the paper).
type Tuning = core.Tuning

// The available tunings.
const (
	// ThroughputOptimized minimizes communication: ThetaL0 = n/P,
	// ThetaL1 = 1, B = ThetaL0. Tolerates (P log P, 3)-skew.
	ThroughputOptimized = core.ThroughputOptimized
	// SkewResistant tolerates arbitrary adversarial skew for batches of
	// Omega(P log^2 P): ThetaL0 = Theta(P), ThetaL1 = Theta(log_B P),
	// B = 16.
	SkewResistant = core.SkewResistant
)

// Options configures an Index.
type Options struct {
	// Dims is the point dimensionality (2..4). Required.
	Dims uint8
	// Tuning selects the Table 2 configuration (default
	// ThroughputOptimized).
	Tuning Tuning
	// Machine overrides the simulated machine (default: the paper's
	// 2048-module UPMEM server).
	Machine *Machine
	// LeafCap bounds points per leaf (default 16).
	LeafCap int
}

// Index is a PIM-zd-tree.
//
// Concurrency: queries (KNN, BoxCount, BoxFetch, Contains, Search-style
// reads) may run concurrently with each other; updates (Insert, Delete)
// must be externally serialized and must not overlap queries. Batches are
// parallelized internally either way — batching, not caller-side
// concurrency, is how the PIM system is kept busy.
type Index struct {
	tree *core.Tree
}

// New creates an index over an optional initial point set.
func New(opts Options, points ...Point) *Index {
	machine := costmodel.UPMEMServer()
	if opts.Machine != nil {
		machine = *opts.Machine
	}
	cfg := core.Config{
		Dims:    opts.Dims,
		Machine: machine,
		Tuning:  opts.Tuning,
		LeafCap: opts.LeafCap,
	}
	return &Index{tree: core.New(cfg, points)}
}

// Insert adds a batch of points.
func (x *Index) Insert(points []Point) { x.tree.Insert(points) }

// Delete removes one stored instance of each given point; absent points
// are ignored.
func (x *Index) Delete(points []Point) { x.tree.Delete(points) }

// Size returns the number of stored points.
func (x *Index) Size() int { return x.tree.Size() }

// Contains reports whether an equal point is stored.
func (x *Index) Contains(p Point) bool { return x.tree.Contains(p) }

// KNN returns the exact k nearest neighbors of each query under the l2
// metric, sorted by increasing distance.
func (x *Index) KNN(queries []Point, k int) [][]Neighbor {
	return x.tree.KNN(queries, k)
}

// KNNWithMetric answers exact kNN under the chosen metric. On the PIM
// side, metrics anchored by the l1 norm (§6 of the paper) are filtered
// with cheap adds and compares; the host applies the exact metric to the
// survivors.
func (x *Index) KNNWithMetric(queries []Point, k int, metric Metric) [][]Neighbor {
	return x.tree.KNNWithMetric(queries, k, metric)
}

// BoxCount returns the exact number of stored points in each box.
func (x *Index) BoxCount(boxes []Box) []int64 { return x.tree.BoxCount(boxes) }

// BoxFetch returns the stored points inside each box.
func (x *Index) BoxFetch(boxes []Box) [][]Point { return x.tree.BoxFetch(boxes) }

// Points returns all stored points in z-order (their on-curve order).
func (x *Index) Points() []Point { return x.tree.Points() }

// Metrics returns the accumulated PIM-Model cost counters.
func (x *Index) Metrics() Metrics { return x.tree.System().Metrics() }

// ResetMetrics zeroes the cost counters (for measuring a phase).
func (x *Index) ResetMetrics() { x.tree.System().ResetMetrics() }

// ModeledSeconds returns the modeled execution time accumulated so far.
func (x *Index) ModeledSeconds() float64 { return x.Metrics().TotalSeconds() }

// Stats is a snapshot of the index's structural state: layer population,
// chunk counts, lazy-counter and push-pull activity, and modeled space.
type Stats = core.Stats

// Stats returns the index's structural statistics.
func (x *Index) Stats() Stats { return x.tree.Stats() }

// Thresholds returns the current layer thresholds (ThetaL0, ThetaL1) and
// chunking factor B (Table 2 of the paper).
func (x *Index) Thresholds() (thetaL0, thetaL1, b int64) { return x.tree.Thresholds() }
