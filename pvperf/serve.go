package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"pvoronoi"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/uncertain"
)

// serveSpec sizes the serve-mixed workload: pvserve in durable mode over a
// generated dataset file, an open-loop reader on one connection and, in
// the mixed phase, an open-loop writer on another.
type serveSpec struct {
	n             int
	readShare     float64 // share of the run's seconds spent in the read phase
	readRate      float64 // read-phase queries per second, about half of capacity
	mixedReadRate float64 // mixed-phase queries per second
	commitRate    float64 // mixed-phase group commits per second
	batch         int     // objects per insertbatch or deletebatch
	streamExtra   int
	recoveries    int // restarts on copies of the crashed data directory
}

var serveMixed = serveSpec{n: 3000, readShare: 0.5, readRate: 800, mixedReadRate: 300, commitRate: 8, batch: 4, streamExtra: 1000, recoveries: 3}

// serveCheckpoints is how many checkpoints serve-mixed times.
const serveCheckpoints = 7

// statsEvery is how often the observer connection samples /v1/stats. The
// server's heap is only known from these samples; the lowest is the
// nearest to its live heap, within what it allocates between two samples.
const statsEvery = 200 * time.Millisecond

// server is one pvserve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	log  *os.File
}

// startServer launches pvserve and returns once /v1/healthz reports ok,
// with the time from launch to that answer.
func startServer(r *run, dataFile, dataDir, logName string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(r.dir, logName))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(r.pvserve, "-addr", addr, "-data", dataFile, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start pvserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.done:
			logf.Close()
			return nil, 0, fmt.Errorf("pvserve exited during start-up (log %s)", logName)
		default:
		}
		if time.Since(start) > 120*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("pvserve not healthy after 120s")
		}
		resp, err := probe.Get(s.url + "/v1/healthz")
		if err == nil {
			var h struct{ Status string }
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill stops the process with SIGKILL, a crash, and waits for it to exit.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.done
	s.log.Close()
}

// oneConn is a client that keeps a single connection to the server.
func oneConn() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// post sends a JSON body and decodes a JSON reply into out. status is the
// HTTP status (0 when the request failed before a reply).
func post(c *http.Client, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

type resultWire struct {
	ID   uint32  `json:"id"`
	Prob float64 `json:"prob"`
}

// queryReply is a query response: the answer, the server's own latency,
// and the retrieval cost the index reported for the query.
type queryReply struct {
	Results    []resultWire `json:"results"`
	LatencyUs  int64        `json:"latency_us"`
	Candidates int          `json:"candidates"`
	LeafIO     int          `json:"leaf_io"`
	GraphNodes int          `json:"graph_nodes"`
	GraphEdges int          `json:"graph_edges"`
}

// httpQuery sends op to the server. It returns the answer, the reply, and
// the HTTP status.
func httpQuery(c *http.Client, base string, op readOp) (answer, queryReply, int, error) {
	var (
		path string
		body map[string]any
	)
	switch op.kind {
	case opPNNQ:
		path, body = "/v1/query", map[string]any{"point": op.q}
	case opKNN:
		path, body = "/v1/possibleknn", map[string]any{"point": op.q, "k": knnK}
	default:
		path, body = "/v1/groupnn", map[string]any{"points": op.group, "agg": "sum"}
	}
	var rep queryReply
	status, err := post(c, base+path, body, &rep)
	if err != nil {
		return nil, rep, status, err
	}
	a := make(answer, len(rep.Results))
	for _, res := range rep.Results {
		a[uncertain.ID(res.ID)] = res.Prob
	}
	return a, rep, status, nil
}

type regionWire struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

type instanceWire struct {
	Pos  []float64 `json:"pos"`
	Prob float64   `json:"prob"`
}

type objectWire struct {
	ID        uint32         `json:"id"`
	Region    regionWire     `json:"region"`
	Instances []instanceWire `json:"instances"`
}

// insertBody is an /v1/insertbatch request carrying each object's
// instances, so the server never sees a generator seed.
func insertBody(objs []*uncertain.Object) map[string]any {
	ws := make([]objectWire, len(objs))
	for i, o := range objs {
		w := objectWire{ID: uint32(o.ID), Region: regionWire{Lo: o.Region.Lo, Hi: o.Region.Hi}}
		for _, in := range o.Instances {
			w.Instances = append(w.Instances, instanceWire{Pos: in.Pos, Prob: in.Prob})
		}
		ws[i] = w
	}
	return map[string]any{"objects": ws}
}

type batchReply struct {
	Count     int   `json:"count"`
	Affected  int   `json:"affected"`
	Examined  int   `json:"examined"`
	LatencyUs int64 `json:"latency_us"`
}

// writerCommit sends the model's next insert or delete batch as one group
// commit and acknowledges it in the model.
func writerCommit(c *http.Client, base string, m *model, batch int, insert bool) (batchReply, error) {
	var rep batchReply
	if insert {
		ins, ok := m.nextInserts(batch)
		if !ok {
			return rep, fmt.Errorf("insert stream exhausted")
		}
		if _, err := post(c, base+"/v1/insertbatch", insertBody(ins), &rep); err != nil {
			return rep, err
		}
		m.ackInserts(ins)
		return rep, nil
	}
	del, ok := m.nextDeletes(batch)
	if !ok {
		return rep, fmt.Errorf("no objects left to delete")
	}
	if _, err := post(c, base+"/v1/deletebatch", map[string]any{"ids": del}, &rep); err != nil {
		return rep, err
	}
	m.ackDeletes(del)
	return rep, nil
}

// statsSample is the part of /v1/stats the benchmark reads.
type statsSample struct {
	Objects     int `json:"objects"`
	IO          struct{ Reads int64 }
	RecordCache struct{ Hits, Misses int64 } `json:"record_cache"`
	MVCC        struct {
		LiveVersions int64 `json:"live_versions"`
		Reclaimed    int64 `json:"reclaimed"`
	} `json:"mvcc"`
	Adjacency struct {
		RowsRefined int64 `json:"rows_refined"`
	} `json:"adjacency"`
	Runtime struct {
		HeapAllocBytes float64 `json:"heap_alloc_bytes"`
		NumGC          float64 `json:"num_gc"`
		GCPauseTotalS  float64 `json:"gc_pause_total_s"`
	} `json:"runtime"`
}

func getStats(c *http.Client, base string) (statsSample, error) {
	var st statsSample
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func runServe(r *run, spec serveSpec) error {
	if r.pvserve == "" {
		return fmt.Errorf("serve-mixed needs -pvserve")
	}
	base, stream, domain := generate(r.seed, spec.n, spec.streamExtra, false)
	m := newModel(domain, base, stream)
	dataFile := filepath.Join(r.dir, "data.gob")
	if err := dataset.Save(m.snapshot(), dataFile); err != nil {
		return err
	}

	// Set-up: launch until the first healthy /v1/healthz, on a fresh data
	// directory each time; the last server is kept.
	repeats := setupRepeats
	if r.trace {
		repeats = 1
	}
	var (
		srv    *server
		dir    string
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.kill()
			srv = nil
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
		s, el, err := startServer(r, dataFile, dir, fmt.Sprintf("pvserve-%d.log", i))
		if err != nil {
			return err
		}
		r.attempted.Add(1)
		srv = s
		setups = append(setups, sec(el))
	}
	r.set("setup_wall_s", median(setups))
	r.note("set-up: %d objects, pvserve launch to healthy %.3fs (each of %d: %.3f)", spec.n, median(setups), len(setups), setups)

	reads, writes, obs := oneConn(), oneConn(), oneConn()
	checkServed(r, reads, srv.url, m, recoveredChecks)
	if r.trace {
		buildProbes(r, m.db)
	}
	st0, err := getStats(obs, srv.url)
	if err != nil {
		return err
	}
	r.set("refine.rows_built", float64(st0.Adjacency.RowsRefined))

	// Read phase: the open-loop reader alone.
	readDur := time.Duration(float64(r.seconds) * spec.readShare)
	ro := openLoop(r, srv.url, reads, writes, obs, m, readDur, spec.readRate, 0, spec.batch)
	r.set("read_qps", float64(ro.reads)/ro.elapsed.Seconds())
	for k := opKind(0); k < numOpKinds; k++ {
		r.setPercentile(opNames[k]+"_p50_us", ro.lat[k], 50)
		r.setPercentile(opNames[k]+"_p99_us", ro.lat[k], 99)
	}
	if len(ro.stats) == 0 {
		return fmt.Errorf("no /v1/stats sample in the read phase")
	}
	r.note("read phase: %d queries at %.0f/s in %.2fs", ro.reads, spec.readRate, ro.elapsed.Seconds())
	noteLatencies(r, "latency", ro.lat)
	rc := ro.counts
	r.set("octree.leaf_io_per_query", ratio(float64(rc.leafIO), float64(rc.pnnq)))
	r.set("pvindex.candidates_per_pnnq", ratio(float64(rc.cands), float64(rc.pnnq)))
	r.set("adjgraph.nodes_per_knn", ratio(float64(rc.knnNodes), float64(rc.knn)))
	r.set("adjgraph.edges_per_knn", ratio(float64(rc.knnEdges), float64(rc.knn)))
	r.set("adjgraph.edges_per_groupnn", ratio(float64(rc.groupEdges), float64(rc.group)))
	r.set("extquery.knn_cands_per_node", ratio(float64(rc.knnCands), float64(rc.knnNodes)))
	// Times inside the server, the write-path stats of ApplyBatch, the
	// device layer and the allocation rate are not visible from another
	// process.
	for _, name := range []string{
		"pvindex.step1_us", "pvindex.fetch_us", "pnnq.dp_us", "pnnq.knn_dp_us", "pnnq.group_dp_us",
		"extquery.knn_retrieve_us", "extquery.groupnn_retrieve_us",
		"pvindex.batch_se_ms", "pvindex.batch_index_ms", "refine.ms_per_commit", "refine.shrink_ratio",
		"vfs.fsyncs_per_commit", "vfs.fsync_ms", "vfs.write_bytes_per_update", "vfs.checkpoint_write_ms",
		"vfs.recovery_read_ms", "alloc_bytes_per_op", "trace.overhead_ratio",
	} {
		r.set(name, 0)
	}
	r.set("pvserve.overhead_us", median(ro.overhead))
	r.set("pvserve.shed", float64(ro.shed))
	r.setPercentile("loadgen.late_p99_ms", ro.late, 99)
	st1 := ro.stats[len(ro.stats)-1]
	hits, misses := st1.RecordCache.Hits-st0.RecordCache.Hits, st1.RecordCache.Misses-st0.RecordCache.Misses
	r.set("pvindex.rcache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("pagestore.reads_per_query", ratio(float64(st1.IO.Reads-st0.IO.Reads), float64(ro.reads)))

	// Mixed phase: the writer's group commits beside a slower reader.
	mx := openLoop(r, srv.url, reads, writes, obs, m, r.seconds-readDur, spec.mixedReadRate, spec.commitRate, spec.batch)
	r.set("write_ups", float64(mx.acked)/mx.elapsed.Seconds())
	r.setPercentile("commit_p50_ms", mx.commitLat, 50)
	if p, err := tailPercentile(len(mx.commitLat)); err != nil {
		r.fail("commit_tail_ms: %v", err)
	} else {
		r.setPercentile("commit_tail_ms", mx.commitLat, p)
		r.note("commit_tail_ms is p%g of %d commits", p, len(mx.commitLat))
	}
	r.note("mixed phase: %d queries at %.0f/s and %d commits of %d in %.2fs", mx.reads, spec.mixedReadRate, len(mx.commitLat), spec.batch, mx.elapsed.Seconds())
	noteLatencies(r, "latency", mx.lat)
	r.set("mvcc.read_slowdown_ratio", ratio(median(mx.lat[opPNNQ]), median(ro.lat[opPNNQ])))
	r.set("pvindex.affected_per_update", ratio(float64(mx.affected), float64(mx.acked)))
	r.set("pvindex.affected_over_examined", ratio(float64(mx.affected), float64(mx.examined)))

	stats := append(append([]statsSample{st0}, ro.stats...), mx.stats...)
	last := stats[len(stats)-1]
	heap, pending := stats[0].Runtime.HeapAllocBytes, int64(0)
	for _, s := range stats {
		heap = min(heap, s.Runtime.HeapAllocBytes)
		pending = max(pending, s.MVCC.LiveVersions-1)
	}
	r.set("heap_mb", heap/(1<<20))
	r.set("mvcc.pending_versions_max", float64(pending))
	r.set("mvcc.reclaimed", float64(last.MVCC.Reclaimed-st1.MVCC.Reclaimed))
	r.set("gc.cycles", last.Runtime.NumGC-st0.Runtime.NumGC)
	r.set("gc.pause_ms", (last.Runtime.GCPauseTotalS-st0.Runtime.GCPauseTotalS)*1e3)

	// Checkpoints, each after a commit so none is skipped.
	var ckpts []float64
	for i := 0; i < serveCheckpoints; i++ {
		r.attempted.Add(1)
		if _, err := writerCommit(writes, srv.url, m, spec.batch, i%2 == 0); err != nil {
			return err
		}
		var rep struct{ Skipped bool }
		r.attempted.Add(1)
		start := time.Now()
		if _, err := post(writes, srv.url+"/v1/checkpoint", map[string]any{}, &rep); err != nil {
			return err
		}
		ckpts = append(ckpts, sec(time.Since(start)))
		if rep.Skipped {
			r.fail("checkpoint %d was skipped after a commit", i)
		}
	}
	r.set("checkpoint_s", median(ckpts))

	// As in-process, the traced run keeps a copy of the directory as the
	// last checkpoint left it, to time a restart that replays nothing.
	var checkpointed string
	if r.trace {
		checkpointed = filepath.Join(r.dir, "checkpointed")
		if err := copyDir(dir, checkpointed); err != nil {
			return err
		}
	}

	// One more acknowledged commit, then a crash.
	r.attempted.Add(1)
	if _, err := writerCommit(writes, srv.url, m, spec.batch, true); err != nil {
		return err
	}
	srv.kill()
	srv = nil
	return serveRecoveries(r, dir, checkpointed, dataFile, m, spec.recoveries, spec.batch)
}

// load is what one open-loop phase measured.
type load struct {
	lat                       [numOpKinds][]float64 // µs
	late, overhead, commitLat []float64
	shed, reads               int
	counts                    readCounts
	acked, affected, examined int
	elapsed                   time.Duration
	stats                     []statsSample
}

// openLoop sends queries at readRate on one connection and, when
// commitRate > 0, group commits at commitRate on another, for dur, while a
// third connection samples /v1/stats every statsEvery and once at the end. Latency is corrected for coordinated
// omission: each connection is replayed as a queue in which request i
// starts at ready_i = max(due_i, ready_{i-1} + rtt_{i-1}), and its latency
// is ready_i - due_i + rtt_i. A slow reply so counts against every request
// due behind it, while the generator's own lateness (sleep overshoot:
// timers are coarse next to a sub-millisecond interval) does not; it is
// reported apart as loadgen.late_p99_ms.
func openLoop(r *run, base string, reads, writes, obs *http.Client, m *model, dur time.Duration, readRate, commitRate float64, batch int) load {
	var (
		wg  sync.WaitGroup
		out load
	)
	start := time.Now()
	end := start.Add(dur)
	wg.Add(2)
	go func() {
		defer wg.Done()
		t := time.NewTicker(statsEvery)
		defer t.Stop()
		for now := range t.C {
			if now.After(end) {
				return
			}
			st, err := getStats(obs, base)
			if err != nil {
				r.fail("stats: %v", err)
				continue
			}
			out.stats = append(out.stats, st)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(readRate)))
		var free time.Time
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) / readRate * float64(time.Second)))
			if !due.Before(end) {
				return
			}
			// Queries read the model's domain only, which no commit changes.
			op := nextReadOp(rng, m.db.Domain, serveMix)
			time.Sleep(time.Until(due))
			sent := time.Now()
			_, rep, status, err := httpQuery(reads, base, op)
			rtt := time.Since(sent)
			ready := later(due, free)
			free = ready.Add(rtt)
			r.attempted.Add(1)
			if err != nil {
				if status == http.StatusServiceUnavailable {
					out.shed++
				}
				r.fail("%s: %v", opNames[op.kind], err)
				continue
			}
			out.lat[op.kind] = append(out.lat[op.kind], us(ready.Sub(due)+rtt))
			out.late = append(out.late, ms(sent.Sub(ready)))
			out.overhead = append(out.overhead, us(rtt)-float64(rep.LatencyUs))
			out.reads++
			out.counts.add(op.kind, rep)
		}
	}()
	if commitRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Time
			for i := 0; ; i++ {
				due := start.Add(time.Duration(float64(i) / commitRate * float64(time.Second)))
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				r.attempted.Add(1)
				rep, err := writerCommit(writes, base, m, batch, i%2 == 0)
				rtt := time.Since(sent)
				ready := later(due, free)
				free = ready.Add(rtt)
				if err != nil {
					r.fail("commit: %v", err)
					continue
				}
				out.commitLat = append(out.commitLat, ms(ready.Sub(due)+rtt))
				out.affected += rep.Affected
				out.examined += rep.Examined
				out.acked += rep.Count
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	if st, err := getStats(obs, base); err != nil {
		r.fail("stats: %v", err)
	} else {
		out.stats = append(out.stats, st)
	}
	return out
}

// later returns the later of two instants.
func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// checkServed compares n served answers of each query kind with the
// oracle over the model.
func checkServed(r *run, c *http.Client, base string, m *model, n int) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	var samples []sampledOp
	for k := opKind(0); k < numOpKinds; k++ {
		for got := 0; got < n; {
			op := nextReadOp(rng, m.db.Domain, serveMix)
			if op.kind != k {
				continue
			}
			got++
			r.attempted.Add(1)
			ans, _, _, err := httpQuery(c, base, op)
			if err != nil {
				r.fail("%s: %v", opNames[k], err)
				continue
			}
			samples = append(samples, sampledOp{op: op, got: ans})
		}
	}
	checkSamples(r, m.db, samples)
}

// serveRecoveries restarts pvserve n times, each on its own copy of the
// crashed data directory, timing launch to healthy. The first recovered
// server is checked against the model, and its directory is then opened
// in-process to compare the recovered ID set exactly. When checkpointed is
// set, a restart on a copy of it follows each recovery, and the medians'
// difference per replayed update is recovery.ms_per_replayed_update.
func serveRecoveries(r *run, dir, checkpointed, dataFile string, m *model, n, replayed int) error {
	var times, base []float64
	for i := 0; i < n; i++ {
		if checkpointed != "" {
			cp := filepath.Join(r.dir, fmt.Sprintf("checkpointed-%d", i))
			if err := copyDir(checkpointed, cp); err != nil {
				return err
			}
			r.attempted.Add(1)
			srv, el, err := startServer(r, dataFile, cp, fmt.Sprintf("pvserve-checkpointed-%d.log", i))
			if err != nil {
				return fmt.Errorf("restart after checkpoint: %w", err)
			}
			srv.kill()
			base = append(base, sec(el))
		}
		cp := filepath.Join(r.dir, fmt.Sprintf("crash-%d", i))
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		r.attempted.Add(1)
		srv, el, err := startServer(r, dataFile, cp, fmt.Sprintf("pvserve-recovered-%d.log", i))
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		times = append(times, sec(el))
		if i > 0 {
			srv.kill()
			continue
		}
		c := oneConn()
		st, err := getStats(c, srv.url)
		if err != nil {
			srv.kill()
			return err
		}
		if st.Objects != m.db.Len() {
			r.fail("recovered server holds %d objects, want %d", st.Objects, m.db.Len())
		}
		checkServed(r, c, srv.url, m, recoveredChecks)
		srv.kill()

		r.attempted.Add(1)
		d, err := pvoronoi.OpenDurable(cp, nil, pvoronoi.DefaultOptions())
		if err != nil {
			return fmt.Errorf("open recovered directory: %w", err)
		}
		if err := sameIDs(d.DB(), m.db); err != nil {
			r.fail("recovered directory: %v", err)
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	r.set("recovery_s", median(times))
	r.note("recovery: pvserve restart after a crash to healthy %.3fs (each of %d: %.3f), replaying %d updates", median(times), n, times, replayed)
	if checkpointed != "" {
		r.set("recovery.ms_per_replayed_update", (median(times)-median(base))*1e3/float64(replayed))
		r.note("recovery: pvserve restart after the last checkpoint %.3fs (each of %d: %.3f), replaying none", median(base), n, base)
	}
	return nil
}
