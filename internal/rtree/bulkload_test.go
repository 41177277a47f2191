package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/race"
)

// genRect draws one rectangle of the named distribution inside [0,1000]^d:
// "uniform" spreads corners over the space, "clustered" packs them around
// five centers, "identical" returns the same rectangle every time.
func genRect(rng *rand.Rand, dist string, d int) geom.Rect {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	switch dist {
	case "uniform":
		for i := range lo {
			lo[i] = rng.Float64() * 1000
			hi[i] = lo[i] + rng.Float64()*20
		}
	case "clustered":
		c := float64(1+rng.Intn(5)) * 160
		for i := range lo {
			lo[i] = c + rng.NormFloat64()*8
			hi[i] = lo[i] + rng.Float64()*4
		}
	case "identical":
		for i := range lo {
			lo[i], hi[i] = 400, 410
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// checkBulkShape asserts the packing contract on top of checkInvariants:
// every node carries the tree's session tag, and leaves number ⌈n/fanout⌉
// with sizes within one of each other.
func checkBulkShape(t *testing.T, tree *Tree, n int) {
	t.Helper()
	var leaves []int
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.owner != tree.sess {
			t.Fatalf("node at level %d not owned by the tree's session", nd.level)
		}
		if nd.leaf() {
			leaves = append(leaves, len(nd.entries))
			return
		}
		for _, e := range nd.entries {
			walk(e.child)
		}
	}
	walk(tree.root)
	want := max((n+tree.maxEntries-1)/tree.maxEntries, 1)
	if len(leaves) != want {
		t.Fatalf("n=%d: %d leaves, want %d", n, len(leaves), want)
	}
	if slices.Max(leaves)-slices.Min(leaves) > 1 {
		t.Fatalf("n=%d: uneven leaves, sizes %d..%d", n, slices.Min(leaves), slices.Max(leaves))
	}
}

// checkAgainstScan compares Search, full NNIter browsing and PossibleNN
// with a linear scan of live.
func checkAgainstScan(t *testing.T, rng *rand.Rand, tree *Tree, live []Item, dist string, d int) {
	t.Helper()
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(live))
	}
	for k := 0; k < 3; k++ {
		q := genRect(rng, dist, d).Expand(30)
		var want []uint32
		for _, it := range live {
			if it.Rect.Intersects(q) {
				want = append(want, it.ID)
			}
		}
		slices.Sort(want)
		if got := idsOf(tree.Search(q, nil)); !slices.Equal(got, want) {
			t.Fatalf("Search(%v) = %d items, want %d", q, len(got), len(want))
		}

		p := genRect(rng, dist, d).Center()
		var wantDist []float64
		wantIDs := make([]uint32, 0, len(live))
		bestMax := -1.0
		for _, it := range live {
			wantDist = append(wantDist, it.Rect.MinDist(p))
			wantIDs = append(wantIDs, it.ID)
			if m := it.Rect.MaxDist(p); bestMax < 0 || m < bestMax {
				bestMax = m
			}
		}
		slices.Sort(wantDist)
		slices.Sort(wantIDs)
		var gotDist []float64
		var gotIDs []uint32
		for it := NewNNIter(tree, p, MinDistTo(p)); ; {
			item, dd, ok := it.Next()
			if !ok {
				break
			}
			gotDist = append(gotDist, dd)
			gotIDs = append(gotIDs, item.ID)
		}
		slices.Sort(gotIDs)
		if !slices.Equal(gotDist, wantDist) || !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("NNIter from %v: %d items out of order or missing (want %d)", p, len(gotDist), len(wantDist))
		}

		var wantNN []uint32
		for _, it := range live {
			if it.Rect.MinDist(p) <= bestMax {
				wantNN = append(wantNN, it.ID)
			}
		}
		slices.Sort(wantNN)
		if got := tree.PossibleNN(p); !slices.Equal(got, wantNN) {
			t.Fatalf("PossibleNN(%v) = %v, want %v", p, got, wantNN)
		}
	}
}

// churn applies rounds of interleaved R* inserts and deletes to tree,
// drawing new items from dist, and returns the live set.
func churn(t *testing.T, rng *rand.Rand, tree *Tree, live []Item, rounds int, nextID *uint32, dist string, d int) []Item {
	t.Helper()
	for r := 0; r < rounds; r++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			if !tree.Delete(live[k]) {
				t.Fatalf("round %d: Delete(%d) failed", r, live[k].ID)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			it := Item{Rect: genRect(rng, dist, d), ID: *nextID}
			*nextID++
			tree.Insert(it)
			live = append(live, it)
		}
	}
	return live
}

// TestBulkLoadMatchesScan packs trees at the boundary sizes around the
// fanout, checks the packing contract and every query against a linear
// scan, then runs 300 rounds of R* churn on the packed tree and checks
// again.
func TestBulkLoadMatchesScan(t *testing.T) {
	for _, f := range []int{4, 16, 100} {
		for _, n := range []int{0, 1, f - 1, f, f + 1, 2*f + 1, f*f + 1} {
			for d := 1; d <= 4; d++ {
				for _, dist := range []string{"uniform", "clustered", "identical"} {
					name := fmt.Sprintf("F%d/n%d/d%d/%s", f, n, d, dist)
					rng := rand.New(rand.NewSource(int64(f*100000 + n*10 + d)))
					items := make([]Item, n)
					for i := range items {
						items[i] = Item{Rect: genRect(rng, dist, d), ID: uint32(i)}
					}
					orig := slices.Clone(items)
					tree := BulkLoad(d, f, items)
					if !slices.EqualFunc(items, orig, func(a, b Item) bool { return a.ID == b.ID && a.Rect.Equal(b.Rect) }) {
						t.Fatalf("%s: BulkLoad reordered its input", name)
					}
					checkBulkShape(t, tree, n)
					checkAgainstScan(t, rng, tree, items, dist, d)

					next := uint32(n)
					live := churn(t, rng, tree, slices.Clone(items), 300, &next, dist, d)
					checkAgainstScan(t, rng, tree, live, dist, d)
				}
			}
		}
	}
}

// TestBulkLoadCloneCOW churns a copy-on-write clone of a packed tree: the
// sealed original keeps its items, answers and shape, and the clone stays
// exact.
func TestBulkLoadCloneCOW(t *testing.T) {
	for _, f := range []int{4, 16, 100} {
		rng := rand.New(rand.NewSource(int64(f)))
		n := f*f + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: genRect(rng, "uniform", 2), ID: uint32(i)}
		}
		base := BulkLoad(2, f, items)
		clone := base.CloneCOW()
		next := uint32(n)
		live := churn(t, rng, clone, slices.Clone(items), 300, &next, "uniform", 2)

		checkBulkShape(t, base, n)
		checkAgainstScan(t, rng, base, items, "uniform", 2)
		checkAgainstScan(t, rng, clone, live, "uniform", 2)
	}
}

// TestChooseSubtreeZeroAlloc pins the R* descent's overlap-enlargement scan
// over a full level-1 node to zero heap allocations.
func TestChooseSubtreeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, DefaultFanout*DefaultFanout)
	for i := range items {
		items[i] = Item{Rect: genRect(rng, "uniform", 3), ID: uint32(i)}
	}
	tree := BulkLoad(3, DefaultFanout, items)
	if tree.root.level != 1 || len(tree.root.entries) != DefaultFanout {
		t.Fatalf("root at level %d with %d entries, want a full level-1 node", tree.root.level, len(tree.root.entries))
	}
	r := genRect(rng, "uniform", 3)
	allocs := testing.AllocsPerRun(20, func() { _ = tree.chooseSubtree(tree.root, r) })
	if race.Enabled {
		t.Logf("race detector enabled: skipping zero-alloc assertion (measured %.1f)", allocs)
		return
	}
	if allocs != 0 {
		t.Fatalf("chooseSubtree allocates %.1f times per call, want 0", allocs)
	}
}
