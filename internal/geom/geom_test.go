package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if got := Dist(p, q); got != 5 {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := Dist2(p, q); got != 25 {
		t.Errorf("Dist2 = %g, want 25", got)
	}
	if got := Dist(p, p); got != 0 {
		t.Errorf("Dist(p,p) = %g, want 0", got)
	}
}

func TestPointEqualClone(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if p.Equal(q) {
		t.Fatal("clone aliases original")
	}
	if p.Equal(Point{1, 2}) {
		t.Fatal("points of different dims compare equal")
	}
}

func TestNewRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect accepted inverted rectangle")
		}
	}()
	NewRect(Point{1, 1}, Point{0, 2})
}

func TestNewRectDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect accepted mismatched dims")
		}
	}()
	NewRect(Point{1}, Point{2, 3})
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{4, 2})
	if got := r.Volume(); got != 8 {
		t.Errorf("Volume = %g, want 8", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %g, want 6", got)
	}
	if got := r.MaxSide(); got != 4 {
		t.Errorf("MaxSide = %g, want 4", got)
	}
	if c := r.Center(); !c.Equal(Point{2, 1}) {
		t.Errorf("Center = %v, want (2,1)", c)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{4, 2}) || !r.Contains(Point{2, 1}) {
		t.Error("Contains misses boundary or interior points")
	}
	if r.Contains(Point{4.001, 1}) {
		t.Error("Contains accepts outside point")
	}
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{4, 4})
	b := NewRect(Point{2, 2}, Point{6, 6})
	c := NewRect(Point{5, 5}, Point{7, 7})

	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a,b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a,c should not intersect")
	}
	got, ok := a.Intersection(b)
	if !ok || !got.Equal(NewRect(Point{2, 2}, Point{4, 4})) {
		t.Errorf("Intersection = %v, %v", got, ok)
	}
	if _, ok := a.Intersection(c); ok {
		t.Error("Intersection of disjoint rects should report false")
	}
	// Touching boundaries intersect with zero-volume overlap.
	d := NewRect(Point{4, 0}, Point{5, 4})
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
	inter, ok := a.Intersection(d)
	if !ok || inter.Volume() != 0 {
		t.Errorf("touching intersection = %v, %v", inter, ok)
	}
}

func TestRectUnionContains(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{1, 1})
	b := NewRect(Point{3, -2}, Point{4, 0.5})
	u := a.Union(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Errorf("Union %v does not contain operands", u)
	}
	if !u.Equal(NewRect(Point{0, -2}, Point{4, 1})) {
		t.Errorf("Union = %v", u)
	}
}

func TestMinMaxDist(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{3, 3})
	cases := []struct {
		p        Point
		min, max float64
	}{
		{Point{2, 2}, 0, math.Sqrt(2)},               // center: max to any corner
		{Point{0, 2}, 1, math.Sqrt(9 + 1)},           // left of rect
		{Point{4, 4}, math.Sqrt(2), math.Sqrt(18)},   // beyond top-right corner
		{Point{1, 1}, 0, math.Sqrt(8)},               // on a corner
		{Point{2, 0}, 1, math.Sqrt(1 + 9)},           // below
		{Point{-1, -1}, math.Sqrt(8), math.Sqrt(32)}, // far corner
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist(%v) = %g, want %g", c.p, got, c.min)
		}
		if got := r.MaxDist(c.p); math.Abs(got-c.max) > 1e-12 {
			t.Errorf("MaxDist(%v) = %g, want %g", c.p, got, c.max)
		}
	}
}

func TestRectRectDistances(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{1, 1})
	b := NewRect(Point{3, 0}, Point{4, 1})
	if got := a.MinDistRect(b); got != 2 {
		t.Errorf("MinDistRect = %g, want 2", got)
	}
	if got := a.MaxDistRect(b); math.Abs(got-math.Sqrt(16+1)) > 1e-12 {
		t.Errorf("MaxDistRect = %g, want sqrt(17)", got)
	}
	if got := a.MinDistRect(a); got != 0 {
		t.Errorf("MinDistRect(self) = %g, want 0", got)
	}
}

func TestExpand(t *testing.T) {
	r := NewRect(Point{2, 2}, Point{4, 4})
	e := r.Expand(1)
	if !e.Equal(NewRect(Point{1, 1}, Point{5, 5})) {
		t.Errorf("Expand(1) = %v", e)
	}
	s := r.Expand(-2) // over-shrunk: collapses to center
	if !s.Equal(NewRect(Point{3, 3}, Point{3, 3})) {
		t.Errorf("Expand(-2) = %v", s)
	}
}

func TestUnitCube(t *testing.T) {
	c := UnitCube(3, 10)
	if c.Dim() != 3 || c.Volume() != 1000 {
		t.Errorf("UnitCube = %v", c)
	}
}

// randRect builds a valid random rectangle inside [-100,100]^d.
func randRect(rng *rand.Rand, d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		a := rng.Float64()*200 - 100
		b := rng.Float64()*200 - 100
		lo[i] = math.Min(a, b)
		hi[i] = math.Max(a, b)
	}
	return Rect{Lo: lo, Hi: hi}
}

func randPoint(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64()*200 - 100
	}
	return p
}

// randPointIn samples a point uniformly inside r.
func randPointIn(rng *rand.Rand, r Rect) Point {
	p := make(Point, r.Dim())
	for i := range p {
		p[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
	}
	return p
}

// Property: for any point s inside rect r and external point p,
// MinDist(p) <= Dist(s,p) <= MaxDist(p).
func TestMinMaxDistSandwichProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for d := 1; d <= 5; d++ {
		for iter := 0; iter < 300; iter++ {
			r := randRect(rng, d)
			p := randPoint(rng, d)
			s := randPointIn(rng, r)
			dist := Dist(s, p)
			if min := r.MinDist(p); dist < min-1e-9 {
				t.Fatalf("d=%d: interior point closer (%g) than MinDist (%g)", d, dist, min)
			}
			if max := r.MaxDist(p); dist > max+1e-9 {
				t.Fatalf("d=%d: interior point farther (%g) than MaxDist (%g)", d, dist, max)
			}
		}
	}
}

// Property: MaxDist is attained at one of the 2^d corners.
func TestMaxDistAttainedAtCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(3)
		r := randRect(rng, d)
		p := randPoint(rng, d)
		want := r.MaxDist(p)
		best := 0.0
		corners := 1 << d
		for mask := 0; mask < corners; mask++ {
			c := make(Point, d)
			for i := 0; i < d; i++ {
				if mask&(1<<i) != 0 {
					c[i] = r.Hi[i]
				} else {
					c[i] = r.Lo[i]
				}
			}
			if dist := Dist(c, p); dist > best {
				best = dist
			}
		}
		if math.Abs(best-want) > 1e-9 {
			t.Fatalf("MaxDist = %g but best corner = %g", want, best)
		}
	}
}

// Property (testing/quick): union always contains both operands, and
// intersection (when it exists) is contained in both.
func TestUnionIntersectionQuick(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 1000) }
		a := NewRect(
			Point{math.Min(norm(ax), norm(bx)), math.Min(norm(ay), norm(by))},
			Point{math.Max(norm(ax), norm(bx)), math.Max(norm(ay), norm(by))},
		)
		b := NewRect(
			Point{math.Min(norm(cx), norm(dx)), math.Min(norm(cy), norm(dy))},
			Point{math.Max(norm(cx), norm(dx)), math.Max(norm(cy), norm(dy))},
		)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		if inter, ok := a.Intersection(b); ok {
			if !a.ContainsRect(inter) || !b.ContainsRect(inter) {
				return false
			}
			if !a.Intersects(b) {
				return false
			}
		} else if a.Intersects(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the non-allocating volume helpers agree bit for bit with the
// allocating Intersection/Union forms they replace in the R*-tree's
// scoring, including disjoint, touching and degenerate pairs, and they do
// not allocate.
func TestOverlapUnionVolumeMatchAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for d := 1; d <= 5; d++ {
		for iter := 0; iter < 400; iter++ {
			a, b := randRect(rng, d), randRect(rng, d)
			switch iter % 4 {
			case 1: // touching along dimension 0
				b.Lo[0], b.Hi[0] = a.Hi[0], a.Hi[0]+1
			case 2: // degenerate point rectangle
				b = PointRect(randPoint(rng, d))
			}
			want := 0.0
			if inter, ok := a.Intersection(b); ok {
				want = inter.Volume()
			}
			if got := a.OverlapVolume(b); got != want {
				t.Fatalf("d=%d: OverlapVolume = %v, Intersection.Volume = %v", d, got, want)
			}
			if got, want := a.UnionVolume(b), a.Union(b).Volume(); got != want {
				t.Fatalf("d=%d: UnionVolume = %v, Union.Volume = %v", d, got, want)
			}
		}
	}
	a, b := randRect(rng, 3), randRect(rng, 3)
	if n := testing.AllocsPerRun(100, func() { _ = a.OverlapVolume(b) + a.UnionVolume(b) }); n != 0 {
		t.Fatalf("volume helpers allocate %v times per call", n)
	}
}

// Property: MinDistRect(a,b) <= Dist(x,y) <= MaxDistRect(a,b) for x in a, y in b.
func TestRectRectSandwichProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		d := 1 + rng.Intn(4)
		a := randRect(rng, d)
		b := randRect(rng, d)
		x := randPointIn(rng, a)
		y := randPointIn(rng, b)
		dist := Dist(x, y)
		if min := a.MinDistRect(b); dist < min-1e-9 {
			t.Fatalf("pair dist %g < MinDistRect %g", dist, min)
		}
		if max := a.MaxDistRect(b); dist > max+1e-9 {
			t.Fatalf("pair dist %g > MaxDistRect %g", dist, max)
		}
	}
}

func BenchmarkMinDist2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := randRect(rng, 4)
	p := randPoint(rng, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.MinDist2(p)
	}
}

// TestAxisDist2MatchMaxForm pins the comparison-based AxisMaxDist2 and
// AxisMinDist2 to the math.Max/math.Abs forms bit for bit on finite inputs
// with lo <= hi, signed zeros and touching endpoints included.
func TestAxisDist2MatchMaxForm(t *testing.T) {
	maxForm := func(x, lo, hi float64) float64 {
		d := math.Max(math.Abs(x-lo), math.Abs(x-hi))
		return d * d
	}
	minForm := func(x, lo, hi float64) float64 {
		d := math.Max(math.Max(lo-x, x-hi), 0)
		return d * d
	}
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1, -1, 0.5, -0.5, 1e-300, -1e-300, 3, 1e150, -1e150, math.SmallestNonzeroFloat64}
	check := func(x, lo, hi float64) {
		if lo > hi {
			lo, hi = hi, lo
		}
		if got, want := AxisMaxDist2(x, lo, hi), maxForm(x, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AxisMaxDist2(%g, %g, %g) = %g (%#x), math.Max form %g (%#x)", x, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := AxisMinDist2(x, lo, hi), minForm(x, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AxisMinDist2(%g, %g, %g) = %g (%#x), math.Max form %g (%#x)", x, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range special {
		for _, lo := range special {
			for _, hi := range special {
				check(x, lo, hi)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		v := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return float64(rng.Intn(9) - 4) // exact ties and touching endpoints
			case 1:
				return special[rng.Intn(len(special))]
			default:
				return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		check(v(), v(), v())
	}
}
