package main

import (
	"runtime"
	"time"
)

// The host's speed drifts, and CPU time drifts with it: with no steal at
// all, the median CPU time of churn-clustered's fixed-trace commits fell
// from 149 to 111 ms between two ten-run campaigns a quarter of an hour
// apart, and a reopen of read-uniform's store took 6 s of wall-clock time
// in one hour and 2.8 s in the next. A reference kernel that belongs to
// the benchmark, not to the program, runs a few times through each run;
// its median CPU time over refNominal is the run's speed factor, which no
// change to the program can move, and the gated CPU times are divided by
// it. Over ten seeds this cut the quartile distance over the median from
// 0.098 to 0.054 for the churn-clustered commit median and from 0.13 to
// 0.06 for read-uniform's set-up.

// refNominal only sets the scale of the gated metrics: a run whose
// reference kernel takes refNominal reports its CPU times as measured.
const refNominal = 20 * time.Millisecond

// refKernel is the reference work: floating-point distance sums like the
// probability DP's, and a dependent walk through an 8 MiB permutation like
// the pointer chasing of index lookups.
type refKernel struct {
	next []int32
	pts  []float64
}

func newRefKernel() *refKernel {
	const n = 1 << 21 // 8 MiB of int32
	k := &refKernel{next: make([]int32, n), pts: make([]float64, 2*64)}
	// One cycle through every slot, in a fixed pseudo-random order.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint32(2463534242)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := int(x % uint32(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		k.next[perm[i]] = perm[(i+1)%n]
	}
	for i := range k.pts {
		k.pts[i] = float64(i%17) * 3.25
	}
	return k
}

var refSink float64

// measure runs the kernel once and returns the CPU time it took.
func (k *refKernel) measure() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	var sum float64
	for rep := 0; rep < 40000; rep++ {
		qx, qy := float64(rep), float64(rep%7)
		for i := 0; i < len(k.pts); i += 2 {
			dx, dy := k.pts[i]-qx, k.pts[i+1]-qy
			sum += dx*dx + dy*dy
		}
	}
	p := int32(0)
	for i := 0; i < 1<<17; i++ {
		p = k.next[p]
	}
	refSink += sum + float64(p)
	return threadCPU() - c0
}

// calibrate runs the reference kernel once and keeps its CPU time.
func (r *run) calibrate() {
	if r.ref == nil {
		r.ref = newRefKernel()
	}
	r.refTimes = append(r.refTimes, us(r.ref.measure()))
}

// speedFactor is the run's median reference time over refNominal: above 1
// when the host ran slower than the nominal machine.
func (r *run) speedFactor() float64 {
	return median(r.refTimes) / us(refNominal)
}
