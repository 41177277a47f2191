package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pvoronoi"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/uncertain"
)

// reader issues one query and returns the time the call took and, when
// keep is set, its answer for the oracle check.
type reader func(op readOp, keep bool) (time.Duration, answer, error)

// Sampling of answers for the oracle: every sampleEvery-th query of a
// client, up to sampleCap of each kind per client and call.
const sampleEvery = 97

var sampleCap = [numOpKinds]int{6, 3, 2}

// minReadSamples is the fewest latencies of each query kind a read phase
// collects, so that its p99 has at least minBeyond samples beyond it.
const minReadSamples = 1100

// readStats is what a read phase measured.
type readStats struct {
	lat     [numOpKinds][]float64 // wall-clock latency, µs
	cpu     [numOpKinds][]float64 // the calling thread's CPU time, µs
	moved   int                   // calls whose goroutine changed thread, so no CPU time
	ops     int
	elapsed time.Duration
	samples []sampledOp
}

// closedLoop runs clients goroutines, each issuing its next query as soon
// as the previous one returns, until dur has passed and every query kind
// has minSamples latencies (or hardStop has passed, after which a short
// sample makes the p99 refuse). Each client draws its queries from its own
// seeded stream; part is the index of this call within the run, so that
// repeated calls draw different queries.
func closedLoop(r *run, part, clients int, dur time.Duration, minSamples int, domain geom.Rect, mk func(client int) reader) readStats {
	per := make([]readStats, clients)
	var (
		wg    sync.WaitGroup
		count [numOpKinds]atomic.Int64
	)
	start := time.Now()
	deadline, hardStop := start.Add(dur), start.Add(max(3*dur, 30*time.Second))
	enough := func() bool {
		for k := range count {
			if count[k].Load() < int64(minSamples) {
				return false
			}
		}
		return true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(part)*101 + int64(c)))
			rd := mk(c)
			st := &per[c]
			var kept [numOpKinds]int
			for i := 0; ; i++ {
				if now := time.Now(); now.After(deadline) && (enough() || now.After(hardStop)) {
					return
				}
				// Yield between queries as a caller that does anything
				// else between replies would: a client that never yields
				// holds its P until preemption, and when the GC's mark
				// worker takes the other P the second client starves for
				// up to a 10 ms time slice, an artifact of the loop.
				runtime.Gosched()
				op := nextReadOp(rng, domain, inprocMix)
				keep := i%sampleEvery == 0 && kept[op.kind] < sampleCap[op.kind]
				tid, cpu0 := syscall.Gettid(), threadCPU()
				el, ans, err := rd(op, keep)
				cpu := threadCPU() - cpu0
				r.attempted.Add(1)
				if err != nil {
					r.fail("%s: %v", opNames[op.kind], err)
					continue
				}
				st.lat[op.kind] = append(st.lat[op.kind], us(el))
				if syscall.Gettid() == tid {
					st.cpu[op.kind] = append(st.cpu[op.kind], us(cpu))
				} else {
					st.moved++
				}
				count[op.kind].Add(1)
				st.ops++
				if keep {
					kept[op.kind]++
					st.samples = append(st.samples, sampledOp{op: op, got: ans})
				}
			}
		}(c)
	}
	wg.Wait()
	out := readStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// merge adds another phase's (or client's) measurements.
func (a *readStats) merge(b readStats) {
	for k := range b.lat {
		a.lat[k] = append(a.lat[k], b.lat[k]...)
		a.cpu[k] = append(a.cpu[k], b.cpu[k]...)
	}
	a.moved += b.moved
	a.ops += b.ops
	a.elapsed += b.elapsed
	a.samples = append(a.samples, b.samples...)
}

// reportReads sets the end-to-end read metrics of a phase.
func reportReads(r *run, st readStats) {
	r.set("read_qps", float64(st.ops)/st.elapsed.Seconds())
	for k := opKind(0); k < numOpKinds; k++ {
		r.setPercentile(opNames[k]+"_p50_us", st.lat[k], 50)
		r.setPercentile(opNames[k]+"_p99_us", st.lat[k], 99)
		r.setPercentile(opNames[k]+"_cpu_p50_us", st.cpu[k], 50)
	}
	r.note("read phase: %d queries in %.2fs (%d moved between threads, so without a CPU time)", st.ops, st.elapsed.Seconds(), st.moved)
	noteLatencies(r, "latency", st.lat)
	noteLatencies(r, "CPU time", st.cpu)
}

// noteLatencies records each query kind's sample count and the supported
// percentiles of a per-query time.
func noteLatencies(r *run, what string, lat [numOpKinds][]float64) {
	for k := opKind(0); k < numOpKinds; k++ {
		line := fmt.Sprintf("%s %s (us) n=%d:", opNames[k], what, len(lat[k]))
		for _, p := range supportedPercentiles {
			if v, err := percentile(lat[k], p); err == nil {
				line += fmt.Sprintf(" p%g=%.0f", p, v)
			}
		}
		r.note("%s", line)
	}
}

// checkSamples compares every kept answer with the oracle over db.
func checkSamples(r *run, db *uncertain.DB, samples []sampledOp) {
	for _, s := range samples {
		r.attempted.Add(1)
		r.checked.Add(1)
		if err := compareAnswers(s.got, oracle(db, s.op)); err != nil {
			r.fail("oracle mismatch on %s: %v", opNames[s.op.kind], err)
		}
	}
}

// facadeReader queries through the public pvoronoi API, as a user would.
func facadeReader(ix *pvoronoi.Index) reader {
	return func(op readOp, keep bool) (time.Duration, answer, error) {
		start := time.Now()
		switch op.kind {
		case opPNNQ:
			res, err := ix.Query(op.q)
			el := time.Since(start)
			if err != nil || !keep {
				return el, nil, err
			}
			return el, fromResults(res), nil
		case opKNN:
			res, err := ix.PossibleKNN(op.q, knnK)
			el := time.Since(start)
			if err != nil || !keep {
				return el, nil, err
			}
			return el, fromKNN(res), nil
		default:
			res, err := ix.GroupNN(op.group, pvoronoi.AggSum)
			el := time.Since(start)
			if err != nil || !keep {
				return el, nil, err
			}
			return el, fromResults(res), nil
		}
	}
}

// readCounts are the per-query counters the traced reader sums from what
// each layer call returns.
type readCounts struct {
	pnnq, leafIO, cands     int
	fetched                 int
	knn, knnNodes, knnEdges int
	knnCands                int
	group, groupEdges       int
}

// add counts one served query's reply.
func (a *readCounts) add(kind opKind, rep queryReply) {
	switch kind {
	case opPNNQ:
		a.pnnq++
		a.leafIO += rep.LeafIO
		a.cands += rep.Candidates
	case opKNN:
		a.knn++
		a.knnNodes += rep.GraphNodes
		a.knnEdges += rep.GraphEdges
		a.knnCands += rep.Candidates
	default:
		a.group++
		a.groupEdges += rep.GraphEdges
	}
}

func (a *readCounts) merge(b readCounts) {
	a.pnnq += b.pnnq
	a.leafIO += b.leafIO
	a.cands += b.cands
	a.fetched += b.fetched
	a.knn += b.knn
	a.knnNodes += b.knnNodes
	a.knnEdges += b.knnEdges
	a.knnCands += b.knnCands
	a.group += b.group
	a.groupEdges += b.groupEdges
}

// tracedReader answers queries by calling each layer's exported function
// in turn on a pvindex.Index, recording a span around every call. The
// calls mirror what the public API does inside one query: Step 1 (or graph
// retrieval), the record fetch, then the probability DP.
func tracedReader(ix *pvindex.Index, rec *recorder, client int, rc *readCounts) reader {
	var n int64
	fetch := func(root int32, req int64, ids []uncertain.ID) ([][]uncertain.Instance, error) {
		s := rec.begin("pvindex.fetch", root, req)
		defer rec.end(s)
		out := make([][]uncertain.Instance, len(ids))
		for i, id := range ids {
			ins, err := ix.Instances(id)
			if err != nil {
				return nil, err
			}
			out[i] = ins
		}
		rc.fetched += len(ids)
		return out, nil
	}
	return func(op readOp, keep bool) (time.Duration, answer, error) {
		n++
		req := int64(client)<<40 | n
		start := time.Now()
		var ans answer
		switch op.kind {
		case opPNNQ:
			root := rec.begin("pnnq", -1, req)
			s := rec.begin("pvindex.step1", root, req)
			cands, leafIO, err := ix.PossibleNNIO(op.q)
			rec.end(s)
			if err != nil {
				return time.Since(start), nil, err
			}
			ids := make([]uncertain.ID, len(cands))
			for i, c := range cands {
				ids[i] = c.ID
			}
			ins, err := fetch(root, req, ids)
			if err != nil {
				return time.Since(start), nil, err
			}
			data := make([]pnnq.CandidateData, len(ids))
			for i := range ids {
				data[i] = pnnq.CandidateData{ID: ids[i], Instances: ins[i]}
			}
			s = rec.begin("pnnq.dp", root, req)
			res := pnnq.Compute(data, op.q)
			rec.end(s)
			rec.end(root)
			rc.pnnq++
			rc.leafIO += leafIO
			rc.cands += len(cands)
			if keep {
				ans = fromResults(res)
			}
		case opKNN:
			root := rec.begin("knn", -1, req)
			s := rec.begin("extquery.knn_retrieve", root, req)
			ids, cost, err := ix.KNNCandidatesOnly(op.q, knnK)
			rec.end(s)
			if err != nil {
				return time.Since(start), nil, err
			}
			ins, err := fetch(root, req, ids)
			if err != nil {
				return time.Since(start), nil, err
			}
			s = rec.begin("pnnq.knn_dp", root, req)
			res := extquery.KNNScores(ids, ins, op.q, knnK)
			rec.end(s)
			rec.end(root)
			rc.knn++
			rc.knnNodes += cost.GraphNodes
			rc.knnEdges += cost.GraphEdges
			rc.knnCands += cost.Candidates
			if keep {
				ans = fromKNN(res)
			}
		default:
			root := rec.begin("groupnn", -1, req)
			s := rec.begin("extquery.groupnn_retrieve", root, req)
			ids, cost, err := ix.GroupNNCandidatesOnly(op.group, extquery.AggSum)
			rec.end(s)
			if err != nil {
				return time.Since(start), nil, err
			}
			ins, err := fetch(root, req, ids)
			if err != nil {
				return time.Since(start), nil, err
			}
			s = rec.begin("pnnq.group_dp", root, req)
			res := extquery.GroupNNScores(ids, ins, op.group, extquery.AggSum)
			rec.end(s)
			rec.end(root)
			rc.group++
			rc.groupEdges += cost.GraphEdges
			if keep {
				ans = fromResults(res)
			}
		}
		return time.Since(start), ans, nil
	}
}

// gcSample reads the runtime counters behind gc.cycles, gc.pause_ms and
// alloc_bytes_per_op.
type gcSample struct {
	cycles, allocBytes uint64
	pauseNs            float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var pause float64
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Bucket midpoint; the outer buckets are unbounded on one side.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case lo < -1e300:
				lo = hi
			case hi > 1e300:
				hi = lo
			}
			pause += float64(c) * (lo + hi) / 2 * 1e9
		}
	}
	return gcSample{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), pauseNs: pause}
}
