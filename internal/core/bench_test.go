package core

import (
	"math/rand"
	"testing"
)

func BenchmarkComputeUBRIS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 2000, 3, 10000, 60)
	tree := BuildRegionTree(db, 100)
	opts := DefaultOptions()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := db.Objects()[i%db.Len()]
		_, _ = ComputeUBR(db, tree, o, opts)
	}
}

func BenchmarkComputeUBRFS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 2000, 3, 10000, 60)
	tree := BuildRegionTree(db, 100)
	opts := DefaultOptions()
	opts.Strategy = CSetFS
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := db.Objects()[i%db.Len()]
		_, _ = ComputeUBR(db, tree, o, opts)
	}
}

func BenchmarkChooseCSetIS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng, 5000, 3, 10000, 60)
	tree := BuildRegionTree(db, 100)
	opts := DefaultOptions()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := db.Objects()[i%db.Len()]
		_ = ChooseCSet(db, tree, o, opts)
	}
}

// BenchmarkBuildRegionTree measures the region-tree build every bootstrap
// and every image load pays: n=6000 uniform 2-d regions in [0,10000]^2 with
// sides up to 60, at the default fanout.
func BenchmarkBuildRegionTree(b *testing.B) {
	db := randomDB(rand.New(rand.NewSource(1)), 6000, 2, 10000, 60)
	b.ReportAllocs()
	for b.Loop() {
		_ = BuildRegionTree(db, 100)
	}
}
