package pvoronoi

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestBuildRejectsInvalidObjects checks the construction boundary: a
// bootstrap database holding one malformed object fails Build,
// BuildParallel and a first-boot OpenDurable with an error and no index,
// and the durable store writes no checkpoint for it. An infinite domain
// fails Build too.
func TestBuildRejectsInvalidObjects(t *testing.T) {
	region := NewRect(Point{100, 100}, Point{120, 120})
	inst := func(pos Point, prob float64) []Instance {
		return []Instance{{Pos: pos, Prob: prob}}
	}
	bad := map[string]*Object{
		"NaN bound":          {Region: Rect{Lo: Point{math.NaN(), 100}, Hi: Point{120, 120}}},
		"+Inf bound":         {Region: Rect{Lo: Point{100, 100}, Hi: Point{math.Inf(1), 120}}},
		"-Inf bound":         {Region: Rect{Lo: Point{math.Inf(-1), 100}, Hi: Point{120, 120}}},
		"NaN coordinate":     {Region: region, Instances: inst(Point{110, math.NaN()}, 1)},
		"Inf coordinate":     {Region: region, Instances: inst(Point{math.Inf(1), 110}, 1)},
		"NaN probability":    {Region: region, Instances: inst(Point{110, 110}, math.NaN())},
		"Inf probability":    {Region: region, Instances: inst(Point{110, 110}, math.Inf(1))},
		"corner mismatch":    {Region: Rect{Lo: Point{100, 100}, Hi: Point{120, 120, 120}}},
		"instance dimension": {Region: region, Instances: inst(Point{110, 110, 110}, 1)},
	}
	for name, o := range bad {
		db := buildSmallDB(t, 30, true)
		o.ID = 9999
		if err := db.Add(o); err != nil {
			t.Fatalf("%s: DB.Add: %v", name, err)
		}
		if ix, err := Build(db, testOptions()); err == nil || ix != nil {
			t.Errorf("%s: Build returned index %v, error %v", name, ix != nil, err)
		}
		if ix, err := BuildParallel(db, testOptions(), 2); err == nil || ix != nil {
			t.Errorf("%s: BuildParallel returned index %v, error %v", name, ix != nil, err)
		}
		dir := t.TempDir()
		if d, err := OpenDurable(dir, db, testOptions()); err == nil || d != nil {
			t.Errorf("%s: OpenDurable returned store %v, error %v", name, d != nil, err)
		}
		if HasCheckpoint(dir) {
			t.Errorf("%s: OpenDurable left a checkpoint behind", name)
		}
	}

	db := NewDB(Rect{Lo: Point{0, 0}, Hi: Point{math.Inf(1), 1000}})
	if err := db.Add(&Object{ID: 1, Region: region}); err != nil {
		t.Fatal(err)
	}
	if ix, err := Build(db, testOptions()); err == nil || ix != nil {
		t.Errorf("infinite domain: Build returned index %v, error %v", ix != nil, err)
	}
}

// TestQueriesRejectInvalidPoints checks the read boundary: every query entry
// point refuses a NaN, ±Inf or wrong-dimension point with ErrInvalidQuery
// instead of answering with an empty result.
func TestQueriesRejectInvalidPoints(t *testing.T) {
	ix, err := Build(buildSmallDB(t, 40, true), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := Point{500, 500}
	ctx := context.Background()
	entries := map[string]func(q Point) error{
		"Query":                 func(q Point) error { _, err := ix.Query(q); return err },
		"QueryWithCost":         func(q Point) error { _, _, err := ix.QueryWithCost(q); return err },
		"QueryVerified":         func(q Point) error { _, err := ix.QueryVerified(q, 0.01); return err },
		"QueryVerifiedWithCost": func(q Point) error { _, _, err := ix.QueryVerifiedWithCost(q, 0.01); return err },
		"PossibleNN":            func(q Point) error { _, err := ix.PossibleNN(q); return err },
		"PossibleNNWithCost":    func(q Point) error { _, _, err := ix.PossibleNNWithCost(q); return err },
		"PossibleKNN":           func(q Point) error { _, err := ix.PossibleKNN(q, 3); return err },
		"PossibleKNNWithCost":   func(q Point) error { _, _, err := ix.PossibleKNNWithCost(q, 3); return err },
		"PossibleKNNCandidates": func(q Point) error { _, err := ix.PossibleKNNCandidates(q, 3); return err },
		"GroupNN":               func(q Point) error { _, err := ix.GroupNN([]Point{good, q}, AggSum); return err },
		"GroupNNWithCost":       func(q Point) error { _, _, err := ix.GroupNNWithCost([]Point{q, good}, AggMax); return err },
		"GroupNNCandidates":     func(q Point) error { _, err := ix.GroupNNCandidates([]Point{good, q}, AggSum); return err },
		"PossibleRNN":           func(q Point) error { _, err := ix.PossibleRNN(q); return err },
		"PossibleRNNWithCost":   func(q Point) error { _, _, err := ix.PossibleRNNWithCost(q); return err },
		"QueryBatch":            func(q Point) error { _, err := ix.QueryBatch([]Point{good, q}, 2); return err },
		"QueryBatchCtx":         func(q Point) error { _, err := ix.QueryBatchCtx(ctx, []Point{good, q}, 2); return err },
		"PossibleNNBatch":       func(q Point) error { _, err := ix.PossibleNNBatch([]Point{good, q}, 2); return err },
		"PossibleNNBatchCtx":    func(q Point) error { _, err := ix.PossibleNNBatchCtx(ctx, []Point{good, q}, 2); return err },
		"GroupNNBatch": func(q Point) error {
			_, err := ix.GroupNNBatch([][]Point{{good}, {good, q}}, AggSum, 2)
			return err
		},
		"GroupNNBatchCtx": func(q Point) error {
			_, err := ix.GroupNNBatchCtx(ctx, [][]Point{{good}, {good, q}}, AggSum, 2)
			return err
		},
		"PossibleKNNBatch":    func(q Point) error { _, err := ix.PossibleKNNBatch([]Point{good, q}, 3, 2); return err },
		"PossibleKNNBatchCtx": func(q Point) error { _, err := ix.PossibleKNNBatchCtx(ctx, []Point{good, q}, 3, 2); return err },
	}
	bad := map[string]Point{
		"NaN":       {math.NaN(), 500},
		"+Inf":      {500, math.Inf(1)},
		"-Inf":      {math.Inf(-1), 500},
		"1-d point": {500},
		"3-d point": {500, 500, 500},
		"empty":     {},
	}
	for name, fn := range entries {
		if err := fn(good); err != nil {
			t.Fatalf("%s: valid point failed: %v", name, err)
		}
		for pname, q := range bad {
			if err := fn(q); !errors.Is(err, ErrInvalidQuery) {
				t.Errorf("%s(%s): error %v, want ErrInvalidQuery", name, pname, err)
			}
		}
	}
}
