// Package domination implements the spatial-domination machinery of
// Emrich et al. ("Boosting spatial pruning: on optimal pruning of MBRs",
// SIGMOD 2010) that the paper uses to reason about Possible Voronoi cells:
//
//   - Dominates(A, B, R): the exact decision whether every point of A is
//     closer than every point of B to every point of R, i.e. whether
//     R ⊆ dom(A, B).
//   - RegionPrunable: the domination-count estimation test of SE Step 9 —
//     whether a candidate region R is disjoint from the non-dominated
//     intersection I(Cset, o), decided by recursively partitioning R and
//     checking that every part is dominated by some candidate.
//
// The decision criterion is exact and O(d) per test: per dimension j, the
// difference maxdist_j(A, r)² − mindist_j(B, r)² is piecewise linear or
// convex in r with no interior maximum, so its maximum over R's extent in j
// is attained at one of the two endpoints (see the derivation in DESIGN.md §4).
package domination

import "pvoronoi/internal/geom"

// Dominates reports whether rectangle a spatially dominates rectangle b with
// respect to region r: for all points x ∈ a, y ∈ b, z ∈ r, dist(x,z) < dist(y,z).
// Equivalently, r ⊆ dom(a, b) = {p : distmax(a,p) < distmin(b,p)}.
func Dominates(a, b, r geom.Rect) bool {
	var sum float64
	for j := range r.Lo {
		sum += axisMaxDiff(a.Lo[j], a.Hi[j], b.Lo[j], b.Hi[j], r.Lo[j], r.Hi[j])
	}
	return sum < 0
}

// axisMaxDiff returns max over rj ∈ {rlo, rhi} of
// maxdist(a, rj)² − mindist(b, rj)² for the 1-D intervals a=[alo,ahi],
// b=[blo,bhi]. Checking the two endpoints is exact (no interior maximum).
func axisMaxDiff(alo, ahi, blo, bhi, rlo, rhi float64) float64 {
	at := geom.AxisMaxDist2(rlo, alo, ahi) - geom.AxisMinDist2(rlo, blo, bhi)
	bt := geom.AxisMaxDist2(rhi, alo, ahi) - geom.AxisMinDist2(rhi, blo, bhi)
	if at > bt {
		return at
	}
	return bt
}

// DomNonEmpty reports whether dom(a, b) ≠ ∅. By Lemma 2 of the paper this
// holds exactly when the uncertainty regions do not intersect.
func DomNonEmpty(a, b geom.Rect) bool {
	return !a.Intersects(b)
}

// CannotDominate reports (conservatively) that no point of r is dominated by
// a over b: for all p ∈ r, distmax(a,p) >= distmin(b,p). It lower-bounds
// maxdist(a,p)² − mindist(b,p)² by the separable per-dimension bound
// Σ_j min_p axisMaxDist²(a_j,p_j) − Σ_j max_p axisMinDist²(b_j,p_j); a
// non-negative bound proves uselessness. A false result is inconclusive.
// This is the filter that keeps the domination-count recursion from
// descending with candidates that cannot contribute.
func CannotDominate(a, b, r geom.Rect) bool {
	var lbMax, ubMin float64
	for j := range r.Lo {
		// min over p_j of axisMaxDist²(a_j, ·): axisMaxDist is V-shaped with
		// its minimum at a's midpoint; clamp the midpoint into r's extent.
		mid := (a.Lo[j] + a.Hi[j]) / 2
		p := mid
		if p < r.Lo[j] {
			p = r.Lo[j]
		} else if p > r.Hi[j] {
			p = r.Hi[j]
		}
		lbMax += geom.AxisMaxDist2(p, a.Lo[j], a.Hi[j])
		// max over p_j of axisMinDist²(b_j, ·): attained at an endpoint.
		lo := geom.AxisMinDist2(r.Lo[j], b.Lo[j], b.Hi[j])
		hi := geom.AxisMinDist2(r.Hi[j], b.Lo[j], b.Hi[j])
		if lo > hi {
			ubMin += lo
		} else {
			ubMin += hi
		}
	}
	return lbMax >= ubMin
}

// PointDominated reports whether point p lies in dom(a, b):
// distmax(a, p) < distmin(b, p).
func PointDominated(a, b geom.Rect, p geom.Point) bool {
	return a.MaxDist2(p) < b.MinDist2(p)
}

// Tester performs domination-count estimation: given a candidate set (the
// C-set of the SE algorithm) and a target object region, it decides whether a
// query region R is entirely covered by the dominated union U(Cset, o) —
// i.e. whether R ∩ I(Cset, o) = ∅ (SE Step 9).
//
// The test recursively bisects R along its longest side. A part is settled
// when some single candidate dominates it. MaxDepth bounds the recursion
// (the paper's granularity parameter m_max controls the same trade-off:
// finer partitioning detects more prunable regions but costs more domination
// tests). The test is conservative: it may answer "not prunable" for a
// prunable region, never the opposite.
//
// NewTester copies the candidate and target bounds into one flat array, and
// the recursion runs over reusable scratch (an index stack of live
// candidates and one in-place bisected box), so RegionPrunable allocates
// nothing once its stack has grown. The kernels compare with plain < and >,
// which presumes finite coordinates: the index enforces that at its
// boundary (Object.Validate on every built or inserted object, and query
// point validation before any tester sees a query point as its target). A
// Tester is not safe for concurrent use.
type Tester struct {
	// MaxDepth bounds the recursive bisection of the tested region.
	// Depth m allows up to 2^m parts. The paper's default m_max=10.
	MaxDepth int

	// Tests counts individual candidate domination decisions, for the
	// harness's cost accounting (Fig. 10(e)).
	Tests int64

	d, n  int
	cands []float64 // candidate i's axis j at [2d·i+2j] (lo), [2d·i+2j+1] (hi)
	tgt   []float64 // the target's bounds, interleaved like a candidate
	box   []float64 // the part under test, interleaved; bisected in place
	tmin  []float64 // the current part's per-axis mindist² terms to the target
	idx   []int32   // stack of live-candidate windows, one per recursion level
}

// NewTester builds a Tester over the given candidate regions. The bounds are
// copied: later changes to candidates or target do not affect the Tester.
func NewTester(candidates []geom.Rect, target geom.Rect, maxDepth int) *Tester {
	if maxDepth < 0 {
		maxDepth = 0
	}
	d, n := target.Dim(), len(candidates)
	buf := make([]float64, 2*d*(n+3))
	t := &Tester{
		MaxDepth: maxDepth,
		d:        d,
		n:        n,
		cands:    buf[:2*d*n],
		tgt:      buf[2*d*n : 2*d*(n+1)],
		box:      buf[2*d*(n+1) : 2*d*(n+2)],
		tmin:     buf[2*d*(n+2):],
		idx:      make([]int32, n, 4*n),
	}
	for i, c := range candidates {
		row := t.cands[2*d*i:]
		for j := 0; j < d; j++ {
			row[2*j], row[2*j+1] = c.Lo[j], c.Hi[j]
		}
		t.idx[i] = int32(i)
	}
	for j := 0; j < d; j++ {
		t.tgt[2*j], t.tgt[2*j+1] = target.Lo[j], target.Hi[j]
	}
	return t
}

// RegionPrunable reports whether region r is disjoint from I(Cset, o), i.e.
// every point of r is dominated by at least one candidate. A true result is
// definitive; a false result may be a false negative at finite MaxDepth.
//
// Candidates are scanned in the caller's order; the C-set strategies supply
// them nearest-first from the target, which makes the short-circuiting scan
// find slab dominators early without any per-call reordering.
func (t *Tester) RegionPrunable(r geom.Rect) bool {
	for j := 0; j < t.d; j++ {
		t.box[2*j], t.box[2*j+1] = r.Lo[j], r.Hi[j]
	}
	return t.prunable(0, t.n, t.MaxDepth)
}

// prunable decides the current box against the live candidates
// idx[base:end]. Candidates that survive the filter are pushed as the
// window idx[end:live] that both halves of the box recurse over.
func (t *Tester) prunable(base, end, depth int) bool {
	d, box, tgt, tmin := t.d, t.box, t.tgt, t.tmin
	// The target's mindist² terms depend on the box only: compute them once
	// per part instead of once per candidate.
	var ubMin float64
	for j := 0; j < d; j++ {
		lo := geom.AxisMinDist2(box[2*j], tgt[2*j], tgt[2*j+1])
		hi := geom.AxisMinDist2(box[2*j+1], tgt[2*j], tgt[2*j+1])
		tmin[2*j], tmin[2*j+1] = lo, hi
		if lo > hi {
			ubMin += lo
		} else {
			ubMin += hi
		}
	}

	// Filter to candidates that can still dominate some part of the box: a
	// candidate proven unable to dominate any point of it (CannotDominate)
	// stays useless for every sub-part, so drop it before recursing. Most
	// slabs either find a single dominator here or lose all candidates,
	// terminating early. sum is Dominates' criterion, lbMax CannotDominate's.
	live := end
	for k := base; k < end; k++ {
		i := t.idx[k]
		c := t.cands[2*d*int(i) : 2*d*int(i)+2*d]
		t.Tests++
		var sum, lbMax float64
		for j := 0; j < d; j++ {
			alo, ahi := c[2*j], c[2*j+1]
			rlo, rhi := box[2*j], box[2*j+1]
			at := geom.AxisMaxDist2(rlo, alo, ahi) - tmin[2*j]
			bt := geom.AxisMaxDist2(rhi, alo, ahi) - tmin[2*j+1]
			if at > bt {
				sum += at
			} else {
				sum += bt
			}
			p := (alo + ahi) / 2
			if p < rlo {
				p = rlo
			} else if p > rhi {
				p = rhi
			}
			lbMax += geom.AxisMaxDist2(p, alo, ahi)
		}
		if sum < 0 {
			return true
		}
		if lbMax < ubMin {
			t.idx = append(t.idx[:live], i)
			live++
		}
	}
	if depth <= 0 || live == end {
		return false
	}

	// Bisect the box along its longest side, in place, restoring it after
	// each half.
	best := 0
	for j := 1; j < d; j++ {
		if box[2*j+1]-box[2*j] > box[2*best+1]-box[2*best] {
			best = j
		}
	}
	lo, hi := box[2*best], box[2*best+1]
	mid := (lo + hi) / 2
	box[2*best+1] = mid
	ok := t.prunable(end, live, depth-1)
	box[2*best+1] = hi
	if !ok {
		return false
	}
	box[2*best] = mid
	ok = t.prunable(end, live, depth-1)
	box[2*best] = lo
	return ok
}
