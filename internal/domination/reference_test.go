package domination

import (
	"math"
	"math/rand"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// refTester is the recursive domination-count test as it stood before the
// flat, allocation-free rewrite: per level it filters a fresh live slice,
// clones both halves of the bisected region and recurses through a
// sub-tester. Its per-axis terms use the math.Max/math.Abs forms. It is the
// reference the rewritten Tester must match decision for decision and test
// for test.
type refTester struct {
	cands    []geom.Rect
	target   geom.Rect
	maxDepth int
	tests    int64
}

func refAxisMaxDist2(x, lo, hi float64) float64 {
	d := math.Max(math.Abs(x-lo), math.Abs(x-hi))
	return d * d
}

func refAxisMinDist2(x, lo, hi float64) float64 {
	d := math.Max(math.Max(lo-x, x-hi), 0)
	return d * d
}

func refDominates(a, b, r geom.Rect) bool {
	var sum float64
	for j := range r.Lo {
		at := refAxisMaxDist2(r.Lo[j], a.Lo[j], a.Hi[j]) - refAxisMinDist2(r.Lo[j], b.Lo[j], b.Hi[j])
		bt := refAxisMaxDist2(r.Hi[j], a.Lo[j], a.Hi[j]) - refAxisMinDist2(r.Hi[j], b.Lo[j], b.Hi[j])
		sum += math.Max(at, bt)
	}
	return sum < 0
}

func refCannotDominate(a, b, r geom.Rect) bool {
	var lbMax, ubMin float64
	for j := range r.Lo {
		p := math.Min(math.Max((a.Lo[j]+a.Hi[j])/2, r.Lo[j]), r.Hi[j])
		lbMax += refAxisMaxDist2(p, a.Lo[j], a.Hi[j])
		ubMin += math.Max(refAxisMinDist2(r.Lo[j], b.Lo[j], b.Hi[j]), refAxisMinDist2(r.Hi[j], b.Lo[j], b.Hi[j]))
	}
	return lbMax >= ubMin
}

func (t *refTester) prunable(cands []geom.Rect, r geom.Rect, depth int) bool {
	live := cands[:0:0]
	for _, c := range cands {
		t.tests++
		if refDominates(c, t.target, r) {
			return true
		}
		if !refCannotDominate(c, t.target, r) {
			live = append(live, c)
		}
	}
	if depth == 0 || len(live) == 0 {
		return false
	}
	best := 0
	for j := 1; j < r.Dim(); j++ {
		if r.Side(j) > r.Side(best) {
			best = j
		}
	}
	mid := (r.Lo[best] + r.Hi[best]) / 2
	lo, hi := r.Clone(), r.Clone()
	lo.Hi[best] = mid
	hi.Lo[best] = mid
	return t.prunable(live, lo, depth-1) && t.prunable(live, hi, depth-1)
}

// genCase draws a target, a candidate set and a tested region. Coordinates
// snap to a coarse grid half the time so touching faces, identical
// rectangles and zero-extent sides occur often; candidates may overlap the
// target, and the region may contain or touch it.
func genCase(rng *rand.Rand, d, n int) (target geom.Rect, cands []geom.Rect, r geom.Rect) {
	grid := rng.Intn(2) == 0
	coord := func() float64 {
		if grid {
			return float64(rng.Intn(21))
		}
		return rng.Float64() * 20
	}
	rect := func() geom.Rect {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for j := 0; j < d; j++ {
			a, b := coord(), coord()
			if rng.Intn(6) == 0 {
				b = a // degenerate side
			}
			lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
		}
		return geom.Rect{Lo: lo, Hi: hi}
	}
	target = rect()
	for len(cands) < n {
		switch k := rng.Intn(10); {
		case k == 0 && len(cands) > 0: // identical to an earlier candidate
			cands = append(cands, cands[rng.Intn(len(cands))].Clone())
		case k == 1: // touching the target along one face
			c := rect()
			j := rng.Intn(d)
			w := c.Hi[j] - c.Lo[j]
			c.Lo[j] = target.Hi[j]
			c.Hi[j] = target.Hi[j] + w
			cands = append(cands, c)
		case k == 2: // overlapping the target
			c := target.Clone()
			for j := 0; j < d; j++ {
				c.Hi[j] += rng.Float64() * 3
			}
			cands = append(cands, c)
		case k == 3: // a point
			p := make(geom.Point, d)
			for j := range p {
				p[j] = coord()
			}
			cands = append(cands, geom.NewRect(p, p.Clone()))
		default:
			cands = append(cands, rect())
		}
	}
	switch rng.Intn(5) {
	case 0: // contains the target
		r = target.Expand(rng.Float64() * 2)
	case 1: // touches the target
		r = rect()
		j := rng.Intn(d)
		w := r.Hi[j] - r.Lo[j]
		r.Hi[j] = target.Lo[j]
		r.Lo[j] = target.Lo[j] - w
	default:
		r = rect()
	}
	return target, cands, r
}

// TestRegionPrunableMatchesReference pins the flat Tester to the recursive
// reference: the same answer and the same Tests count on randomized inputs
// across dimensions, depths and candidate-set sizes, with each Tester
// reused for several regions so its scratch is exercised warm.
func TestRegionPrunableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240613))
	var yes, no int
	for iter := 0; iter < 1500; iter++ {
		d := 1 + rng.Intn(4)
		n := rng.Intn(151)
		depth := rng.Intn(13)
		target, cands, r := genCase(rng, d, n)
		tester := NewTester(cands, target, depth)
		ref := &refTester{cands: cands, target: target, maxDepth: depth}
		for probe := 0; probe < 3; probe++ {
			if probe > 0 {
				_, _, r = genCase(rng, d, 0)
			}
			before := tester.Tests
			got := tester.RegionPrunable(r)
			ref.tests = 0
			want := ref.prunable(cands, r, depth)
			if got != want || tester.Tests-before != ref.tests {
				t.Fatalf("iter %d probe %d (d=%d n=%d depth=%d): got %v with %d tests, reference %v with %d tests\ntarget=%v r=%v",
					iter, probe, d, n, depth, got, tester.Tests-before, want, ref.tests, target, r)
			}
			if got {
				yes++
			} else {
				no++
			}
		}
	}
	if yes < 100 || no < 100 {
		t.Fatalf("unbalanced coverage: %d prunable, %d not prunable", yes, no)
	}
}

// TestRegionPrunableZeroAlloc pins RegionPrunable to zero heap allocations
// once the tester's index stack has grown on a first call.
func TestRegionPrunableZeroAlloc(t *testing.T) {
	// A column of candidates between the target and a tall region (the
	// Figure 6(b) setting, repeated): no single candidate dominates the
	// region, so the test must partition it, while the candidates behind
	// the target are filtered out at the first level.
	target := r2(0, 0, 1, 1)
	var cands []geom.Rect
	for k := 0; k <= 40; k++ {
		y := -40 + 2*float64(k)
		cands = append(cands, r2(4, y, 5, y+1))
		cands = append(cands, r2(-5, y, -4, y+1))
	}
	tester := NewTester(cands, target, 12)
	r := r2(8, -40, 9, 40)
	if !tester.RegionPrunable(r) {
		t.Fatal("expected the far region to be prunable")
	}
	if tester.Tests <= int64(len(cands)) {
		t.Fatalf("only %d tests: the region did not exercise the recursion", tester.Tests)
	}
	allocs := testing.AllocsPerRun(50, func() { _ = tester.RegionPrunable(r) })
	if race.Enabled {
		t.Logf("race detector enabled: skipping zero-alloc assertion (measured %.1f)", allocs)
		return
	}
	if allocs != 0 {
		t.Fatalf("RegionPrunable allocates %.1f times per call, want 0", allocs)
	}
}
