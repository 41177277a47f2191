package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pvoronoi"
	"pvoronoi/internal/core"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pagestore"
	"pvoronoi/internal/pvindex"
	"pvoronoi/internal/rtree"
	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/vfs"
)

// inprocSpec sizes an in-process workload. Both in-process workloads run
// the same life cycle on a durable store — set-up; rounds of closed-loop
// reads, group commits and one checkpoint; a crash; recovery — and differ
// in data and in how the run's seconds are split.
type inprocSpec struct {
	n         int     // base objects
	clustered bool    // clustered (10 Gaussian clusters) instead of uniform
	readShare float64 // share of the run's seconds spent reading
	batch     int     // inserts, and deletes, per group commit
	// commits is how many group commits the run makes: a count, not a
	// time, so that every run of a seed applies the same updates (and
	// recovery replays the same ones); at least 40, so that commit_tail_ms
	// is a p75. It is sized to take about the rest of the run's seconds on
	// the machine DESIGN.md names.
	commits int
	// streamExtra is how many objects the insert stream holds.
	streamExtra int
	// recoveries is how many copies of the crashed store are reopened.
	recoveries int
	// layoutSeed, when set, generates the data and the insert stream
	// instead of the run's seed, which then drives only the queries.
	layoutSeed int64
}

var inprocSpecs = map[string]inprocSpec{
	// Each commit and each reopen on read-uniform writes or replays
	// updates drawn from its own seed's data, so they vary from seed to
	// seed more than churn-clustered's fixed trace: 80 commits and three
	// reopens (about 6 s each, most of it the region R*-tree rebuild)
	// bring their spread over ten seeds near churn-clustered's.
	"read-uniform":    {n: 6000, readShare: 0.7, batch: 2, commits: 80, streamExtra: 400, recoveries: 3},
	"churn-clustered": {n: 2500, clustered: true, readShare: 0.3, batch: 2, commits: 60, streamExtra: 400, recoveries: 5, layoutSeed: 1},
}

const (
	setupRepeats = 3
	// rounds interleave an in-process run's reads, commits and checkpoints,
	// so that each metric samples the whole run: on a shared virtual
	// machine, CPU steal comes in bursts, and a burst that fell on one
	// contiguous three-second write phase moved write_ups by a third.
	rounds = 10
	// tailCommits follow the last checkpoint, so recovery replays them.
	tailCommits = 2
	// ubrSample is how many objects the traced run recomputes a UBR for
	// to time C-set selection, SE and the domination tester.
	ubrSample = 200
	// recoveredChecks is how many queries of each kind re-check a
	// recovered store against the oracle.
	recoveredChecks = 10
)

func runInproc(r *run, spec inprocSpec) error {
	base, stream, domain := layout(r.seed, spec)
	m := newModel(domain, base, stream)
	opts := pvoronoi.DefaultOptions()
	var tfs *timingFS
	if r.trace {
		tfs = newTimingFS(vfs.OS)
		opts.FS = tfs
	}
	clients := runtime.GOMAXPROCS(0)

	// Set-up is a first-boot OpenDurable: BuildParallel with GOMAXPROCS
	// workers plus the initial checkpoint. The last store is kept.
	repeats := setupRepeats
	if r.trace {
		repeats = 1
	}
	var (
		d              *pvoronoi.Durable
		dir            string
		setups, setCPU []float64
	)
	for i := 0; i < repeats; i++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return fmt.Errorf("close set-up store: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
		snap := m.snapshot()
		r.calibrate()
		var (
			nd  *pvoronoi.Durable
			err error
		)
		wall, cpu := measure(func() { nd, err = pvoronoi.OpenDurable(dir, snap, opts) })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sec(wall))
		setCPU = append(setCPU, sec(cpu))
		r.attempted.Add(1)
		d = nd
	}
	r.set("setup_s", median(setCPU))
	r.set("setup_wall_s", median(setups))
	r.set("heap_mb", liveHeapMB())
	r.note("set-up: %d objects, OpenDurable first boot %.3fs wall, %.3fs CPU (each of %d: %.3f wall, %.3f CPU)",
		spec.n, median(setups), median(setCPU), len(setups), setups, setCPU)

	readDur := time.Duration(float64(r.seconds) * spec.readShare)
	if r.trace {
		if err := tracedReads(r, d, m, clients, readDur); err != nil {
			return err
		}
	}
	var (
		reads  readStats
		writes = writeStats{mv0: d.MVCC()}
	)
	if tfs != nil {
		writes.fs0 = tfs.c.snapshot()
	}
	for i := 0; i < rounds; i++ {
		r.calibrate()
		if !r.trace {
			st := closedLoop(r, i, clients, readDur/rounds, minReadSamples/rounds+1, domain,
				func(int) reader { return facadeReader(d.Index) })
			// The model moves on with the round's commits: check now.
			checkSamples(r, m.db, st.samples)
			st.samples = nil
			reads.merge(st)
		}
		if err := writes.commits(r, d, m, spec.commits/rounds, spec.batch); err != nil {
			return err
		}
		if err := writes.checkpoint(r, d, tfs); err != nil {
			return err
		}
	}
	if !r.trace {
		reportReads(r, reads)
	}
	writes.report(r, d, spec.batch, tfs)
	// Reads never run beside commits in-process, and there is no server.
	for _, name := range []string{"mvcc.read_slowdown_ratio", "pvserve.overhead_us", "pvserve.shed", "loadgen.late_p99_ms"} {
		r.set(name, 0)
	}

	// The traced run keeps a copy of the store as the last checkpoint left
	// it: reopening that copy replays nothing, so the crash recovery's
	// excess over it is the cost of replay.
	var checkpointed string
	if r.trace {
		checkpointed = filepath.Join(r.dir, "checkpointed")
		if err := copyDir(dir, checkpointed); err != nil {
			return err
		}
	}
	for i := 0; i < tailCommits; i++ {
		if _, _, _, err := commit(r, d, m, spec.batch); err != nil {
			return err
		}
	}
	// Crash: the handle is abandoned without Close. Every acknowledged
	// batch was fsynced to the WAL before ApplyBatch returned, so the
	// files on disk are exactly what a killed process leaves behind.
	return recoveries(r, dir, checkpointed, m, opts, spec.recoveries, tailCommits*2*spec.batch, tfs)
}

// layout generates a workload's objects. With a layoutSeed the data and
// the insert stream are fixed. Where ten random clusters fall (overlapping,
// or pressed against the domain's edge) sets the cost of an update, and
// across seeds that alone moved commit_p50_ms between 161 and 358 ms; with
// the layout fixed but the stream shuffled by the seed, write_ups still
// read 14.8 for one seed and 21 to 23 for another, each measured twice,
// because a few rare commits cost seconds. A fixed write trace keeps those
// commits in every run instead of in some.
func layout(seed int64, spec inprocSpec) (base, stream []*uncertain.Object, domain geom.Rect) {
	if spec.layoutSeed != 0 {
		seed = spec.layoutSeed
	}
	return generate(seed, spec.n, spec.streamExtra, spec.clustered)
}

// liveHeapMB is the live heap after two forced collections, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure runs f and returns the wall-clock time it took and the CPU time
// the process used meanwhile.
func measure(f func()) (wall, cpu time.Duration) {
	start, cpu0 := time.Now(), processCPU()
	f()
	return time.Since(start), processCPU() - cpu0
}

// commit applies the model's next batch as one group commit and
// acknowledges it in the model, returning its wall-clock and CPU time.
func commit(r *run, d *pvoronoi.Durable, m *model, batch int) (wall, cpu time.Duration, sts []pvoronoi.UpdateStats, err error) {
	ins, ok := m.nextInserts(batch)
	if !ok {
		return 0, 0, nil, errors.New("insert stream exhausted")
	}
	del, ok := m.nextDeletes(batch)
	if !ok {
		return 0, 0, nil, errors.New("no objects left to delete")
	}
	ups := make([]pvoronoi.Update, 0, len(ins)+len(del))
	for _, o := range ins {
		ups = append(ups, pvoronoi.InsertOp(o))
	}
	for _, id := range del {
		ups = append(ups, pvoronoi.DeleteOp(id))
	}
	r.attempted.Add(1)
	wall, cpu = measure(func() { sts, err = d.ApplyBatch(ups) })
	if err != nil {
		return wall, cpu, nil, fmt.Errorf("group commit: %w", err)
	}
	m.ackInserts(ins)
	m.ackDeletes(del)
	return wall, cpu, sts, nil
}

// writeStats accumulates what the rounds' commits and checkpoints
// measured.
type writeStats struct {
	lat, cpu                   []float64 // commit wall-clock and CPU times, ms
	elapsed                    time.Duration
	se, index, refine          time.Duration
	affected, examined         int
	shrinks, iters, pendingMax int
	mv0                        pvindex.MVCCStats
	fs0                        fsSnapshot // device counters before the first commit
	ckptFS                     fsSnapshot // device work inside checkpoints
	ckpt, ckptCPU              []float64  // checkpoint wall-clock and CPU times, s
}

// commits applies n group commits back to back.
func (w *writeStats) commits(r *run, d *pvoronoi.Durable, m *model, n, batch int) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		wall, cpu, sts, err := commit(r, d, m, batch)
		if err != nil {
			return err
		}
		w.lat = append(w.lat, ms(wall))
		w.cpu = append(w.cpu, ms(cpu))
		for _, st := range sts {
			w.se += st.SETime
			w.index += st.IndexTime
			w.refine += st.SE.Refine.Time
			w.affected += st.Affected
			w.examined += st.Examined
			w.shrinks += st.SE.Refine.Shrinks
			w.iters += st.SE.Refine.Iterations
		}
		w.pendingMax = max(w.pendingMax, d.MVCC().LiveVersions-1)
	}
	w.elapsed += time.Since(start)
	return nil
}

// checkpoint times one checkpoint; the round's commits precede it, so it
// is never skipped as unchanged.
func (w *writeStats) checkpoint(r *run, d *pvoronoi.Durable, tfs *timingFS) error {
	var fs0 fsSnapshot
	if tfs != nil {
		fs0 = tfs.c.snapshot()
	}
	r.attempted.Add(1)
	var (
		st  pvoronoi.CheckpointStats
		err error
	)
	wall, cpu := measure(func() { st, err = d.Checkpoint() })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if st.Skipped {
		r.fail("checkpoint %d was skipped after a commit", len(w.ckpt))
	}
	w.ckpt = append(w.ckpt, sec(wall))
	w.ckptCPU = append(w.ckptCPU, sec(cpu))
	if tfs != nil {
		delta := tfs.c.snapshot().sub(fs0)
		w.ckptFS.writeNs += delta.writeNs
		w.ckptFS.syncNs += delta.syncNs
		w.ckptFS.syncs += delta.syncs
		w.ckptFS.writeBytes += delta.writeBytes
	}
	return nil
}

func (w *writeStats) report(r *run, d *pvoronoi.Durable, batch int, tfs *timingFS) {
	commits := float64(len(w.lat))
	updates := commits * float64(2*batch)
	r.set("write_ups", updates/w.elapsed.Seconds())
	r.setPercentile("commit_p50_ms", w.lat, 50)
	r.setPercentile("commit_cpu_p50_ms", w.cpu, 50)
	if p, err := tailPercentile(len(w.lat)); err != nil {
		r.fail("commit tail: %v", err)
	} else {
		r.setPercentile("commit_tail_ms", w.lat, p)
		r.setPercentile("commit_cpu_tail_ms", w.cpu, p)
		r.note("commit tails are p%g of %d commits", p, len(w.lat))
	}
	r.set("checkpoint_s", median(w.ckpt))
	r.set("checkpoint_cpu_s", median(w.ckptCPU))
	r.note("writes: %d commits of %d inserts + %d deletes in %.2fs; %d checkpoints, median %.3fs wall, %.3fs CPU",
		len(w.lat), batch, batch, w.elapsed.Seconds(), len(w.ckpt), median(w.ckpt), median(w.ckptCPU))

	r.set("pvindex.batch_se_ms", ms(w.se)/commits)
	r.set("pvindex.batch_index_ms", ms(w.index)/commits)
	r.set("pvindex.affected_per_update", float64(w.affected)/updates)
	r.set("pvindex.affected_over_examined", ratio(float64(w.affected), float64(w.examined)))
	r.set("refine.ms_per_commit", ms(w.refine)/commits)
	r.set("refine.shrink_ratio", ratio(float64(w.shrinks), float64(w.iters)))
	r.set("mvcc.pending_versions_max", float64(w.pendingMax))
	r.set("mvcc.reclaimed", float64(d.MVCC().Reclaimed-w.mv0.Reclaimed))
	if tfs != nil {
		// Commits' device work is everything since the first commit less
		// what the checkpoints did.
		fs := tfs.c.snapshot().sub(w.fs0).sub(w.ckptFS)
		r.set("vfs.fsyncs_per_commit", float64(fs.syncs)/commits)
		r.set("vfs.fsync_ms", ratio(float64(fs.syncNs)/1e6, float64(fs.syncs)))
		r.set("vfs.write_bytes_per_update", float64(fs.writeBytes)/updates)
		r.set("vfs.checkpoint_write_ms", float64(w.ckptFS.writeNs+w.ckptFS.syncNs)/1e6/float64(len(w.ckpt)))
	}
}

// recoveries copies the crashed store n times and reopens each copy,
// timing OpenDurable. The first recovered store is checked against the
// model: the same IDs, and sampled queries equal the oracle. When
// checkpointed is set, a copy of it is reopened beside each recovery, and
// the medians' difference per replayed update is
// recovery.ms_per_replayed_update.
func recoveries(r *run, dir, checkpointed string, m *model, opts pvoronoi.Options, n, wantReplayed int, tfs *timingFS) error {
	var times, cpus, base, readMs []float64
	for i := 0; i < n; i++ {
		var fs0 fsSnapshot
		if tfs != nil {
			fs0 = tfs.c.snapshot()
		}
		r.calibrate()
		wall, cpu, cp, rd, err := reopen(r, dir, fmt.Sprintf("crash-%d", i), opts)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		rec := rd.Recovery()
		if rec.Rebuilt || rec.Replayed != wantReplayed {
			r.fail("recovery replayed %d updates (rebuilt=%v), want %d from a checkpoint", rec.Replayed, rec.Rebuilt, wantReplayed)
		}
		times = append(times, sec(wall))
		cpus = append(cpus, sec(cpu))
		if tfs != nil {
			readMs = append(readMs, float64(tfs.c.snapshot().sub(fs0).readNs)/1e6)
		}
		if i == 0 {
			checkRecovered(r, rd.Index, m)
		}
		if err := closeRemove(rd, cp); err != nil {
			return fmt.Errorf("close recovered store: %w", err)
		}
		if checkpointed == "" {
			continue
		}
		_, cpu, cp, rd, err = reopen(r, checkpointed, fmt.Sprintf("checkpointed-%d", i), opts)
		if err != nil {
			return fmt.Errorf("reopen after checkpoint: %w", err)
		}
		if rec := rd.Recovery(); rec.Rebuilt || rec.Replayed != 0 {
			r.fail("reopen after checkpoint replayed %d updates (rebuilt=%v), want 0", rec.Replayed, rec.Rebuilt)
		}
		base = append(base, sec(cpu))
		if err := closeRemove(rd, cp); err != nil {
			return fmt.Errorf("close reopened store: %w", err)
		}
	}
	r.set("recovery_s", median(times))
	r.set("recovery_cpu_s", median(cpus))
	r.set("vfs.recovery_read_ms", median(readMs))
	r.note("recovery: OpenDurable after a crash %.3fs wall, %.3fs CPU (each of %d: %.3f wall, %.3f CPU), replaying %d updates",
		median(times), median(cpus), len(times), times, cpus, wantReplayed)
	if checkpointed != "" {
		r.set("recovery.ms_per_replayed_update", (median(cpus)-median(base))*1e3/float64(wantReplayed))
		r.note("recovery: OpenDurable after the last checkpoint %.3fs CPU (each of %d: %.3f), replaying none", median(base), len(base), base)
	}
	return nil
}

// reopen copies a store's directory to r.dir/name and opens the copy,
// measuring OpenDurable.
func reopen(r *run, dir, name string, opts pvoronoi.Options) (wall, cpu time.Duration, cp string, d *pvoronoi.Durable, err error) {
	cp = filepath.Join(r.dir, name)
	if err := copyDir(dir, cp); err != nil {
		return 0, 0, cp, nil, err
	}
	r.attempted.Add(1)
	wall, cpu = measure(func() { d, err = pvoronoi.OpenDurable(cp, nil, opts) })
	return wall, cpu, cp, d, err
}

// closeRemove closes a reopened store and deletes its directory.
func closeRemove(d *pvoronoi.Durable, dir string) error {
	if err := d.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// checkRecovered compares a recovered index with the acknowledged model.
func checkRecovered(r *run, ix *pvoronoi.Index, m *model) {
	r.attempted.Add(1)
	if err := sameIDs(ix.DB(), m.db); err != nil {
		r.fail("recovered store: %v", err)
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	rd := facadeReader(ix)
	var samples []sampledOp
	for k := opKind(0); k < numOpKinds; k++ {
		for n := 0; n < recoveredChecks; {
			op := nextReadOp(rng, m.db.Domain, inprocMix)
			if op.kind != k {
				continue
			}
			n++
			r.attempted.Add(1)
			_, ans, err := rd(op, true)
			if err != nil {
				r.fail("query on recovered store: %v", err)
				continue
			}
			samples = append(samples, sampledOp{op: op, got: ans})
		}
	}
	checkSamples(r, m.db, samples)
}

// sameIDs reports whether two databases hold the same object IDs.
func sameIDs(got, want *uncertain.DB) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d objects, want %d", got.Len(), want.Len())
	}
	for _, o := range want.Objects() {
		if got.Get(o.ID) == nil {
			return fmt.Errorf("acknowledged object %d is missing", o.ID)
		}
	}
	return nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// tracedReads is the traced run's read phase. Its first half queries the
// durable store through the public API with no spans (the baseline for the
// tracing overhead, and the GC and allocation counts); its second half
// queries a pvindex.Index built from the same data with the facade's
// configuration, recording a span around each layer call.
func tracedReads(r *run, d *pvoronoi.Durable, m *model, clients int, dur time.Duration) error {
	buildProbes(r, m.db)
	cfg := pvindex.DefaultConfig()
	cfg.Store = pagestore.New(pagestore.DefaultPageSize)
	ix, err := pvindex.BuildParallel(m.snapshot(), cfg, clients)
	if err != nil {
		return fmt.Errorf("traced index: %w", err)
	}
	r.set("refine.rows_built", float64(ix.RefineCounters().RowsRefined))

	half := dur / 2
	g0 := readGC()
	plain := closedLoop(r, 0, clients, half, minReadSamples, m.db.Domain, func(int) reader { return facadeReader(d.Index) })
	g1 := readGC()
	checkSamples(r, m.db, plain.samples)
	r.set("gc.cycles", float64(g1.cycles-g0.cycles))
	r.set("gc.pause_ms", (g1.pauseNs-g0.pauseNs)/1e6)
	r.set("alloc_bytes_per_op", float64(g1.allocBytes-g0.allocBytes)/float64(plain.ops))

	origin := time.Now()
	recs := make([]*recorder, clients)
	counts := make([]readCounts, clients)
	rc0, io0 := ix.RecordCacheStats(), ix.Store().Stats()
	traced := closedLoop(r, 1, clients, half, minReadSamples, m.db.Domain, func(c int) reader {
		recs[c] = newRecorder(origin, 1<<16)
		return tracedReader(ix, recs[c], c, &counts[c])
	})
	rc1, io1 := ix.RecordCacheStats(), ix.Store().Stats()
	checkSamples(r, m.db, traced.samples)
	var rc readCounts
	for _, c := range counts {
		rc.merge(c)
	}
	spans := mergeSpans(recs)
	reportSpans(r, spans, rc, median(plain.lat[opPNNQ]))
	hits, misses := rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses
	r.set("pvindex.rcache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("pagestore.reads_per_query", float64(io1.Reads-io0.Reads)/float64(traced.ops))
	return saveSpans(r, spans)
}

// reportSpans sets the per-layer read metrics from the traced spans and
// the counts the layer calls returned. plainPNNQ is the untraced PNNQ
// median the tracing overhead is measured against.
func reportSpans(r *run, spans []span, rc readCounts, plainPNNQ float64) {
	self, full := selfTimes(spans), durations(spans)
	medUs := func(name string) float64 { return median(self[name]) / 1e3 }
	sumUs := func(name string) float64 {
		var s float64
		for _, v := range full[name] {
			s += v
		}
		return s / 1e3
	}
	r.set("pvindex.step1_us", medUs("pvindex.step1"))
	r.set("pvindex.fetch_us", ratio(sumUs("pvindex.fetch"), float64(rc.fetched)))
	r.set("pnnq.dp_us", medUs("pnnq.dp"))
	r.set("pnnq.knn_dp_us", medUs("pnnq.knn_dp"))
	r.set("pnnq.group_dp_us", medUs("pnnq.group_dp"))
	r.set("extquery.knn_retrieve_us", medUs("extquery.knn_retrieve"))
	r.set("extquery.groupnn_retrieve_us", medUs("extquery.groupnn_retrieve"))
	r.set("octree.leaf_io_per_query", ratio(float64(rc.leafIO), float64(rc.pnnq)))
	r.set("pvindex.candidates_per_pnnq", ratio(float64(rc.cands), float64(rc.pnnq)))
	r.set("adjgraph.nodes_per_knn", ratio(float64(rc.knnNodes), float64(rc.knn)))
	r.set("adjgraph.edges_per_knn", ratio(float64(rc.knnEdges), float64(rc.knn)))
	r.set("adjgraph.edges_per_groupnn", ratio(float64(rc.groupEdges), float64(rc.group)))
	r.set("extquery.knn_cands_per_node", ratio(float64(rc.knnCands), float64(rc.knnNodes)))
	r.set("trace.overhead_ratio", ratio(median(full["pnnq"])/1e3, plainPNNQ))
	r.note("trace: %d spans; traced PNNQ root median %.1fus vs untraced %.1fus", len(spans), median(full["pnnq"])/1e3, plainPNNQ)
}

func saveSpans(r *run, spans []span) error {
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.csv.gz", r.workload, r.seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.note("trace: spans written to %s", path)
	return nil
}

// buildProbes times the construction layers on the workload's data: the
// region R*-tree build, and C-set selection, SE and the domination tester
// over a seeded sample of objects.
func buildProbes(r *run, db *uncertain.DB) {
	start := time.Now()
	tree := core.BuildRegionTree(db, rtree.DefaultFanout)
	r.set("rtree.build_s", sec(time.Since(start)))

	opts := pvindex.DefaultConfig().SE
	rng := rand.New(rand.NewSource(r.seed + 17))
	objs := db.Objects()
	k := min(ubrSample, len(objs))
	var agg core.Stats
	for i := 0; i < k; i++ {
		_, st := core.ComputeUBR(db, tree, objs[rng.Intn(len(objs))], opts)
		agg.Add(st)
	}
	n := float64(k)
	r.set("core.cset_us_per_ubr", us(agg.CSetTime)/n)
	r.set("core.cset_size", float64(agg.CSetSize)/n)
	r.set("core.se_us_per_ubr", us(agg.UBRTime)/n)
	r.set("core.iterations_per_ubr", float64(agg.Iterations)/n)
	r.set("domination.tests_per_ubr", float64(agg.DominationTests)/n)
	r.set("domination.ns_per_test", ratio(float64(agg.UBRTime), float64(agg.DominationTests)))
}
