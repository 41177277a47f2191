package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/vfs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 50, 10},
		{1000, 99, 990},
		{10000, 99.9, 9990},
		{40, 75, 30},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefuses(t *testing.T) {
	if _, err := percentile(seq(1000), 80); err == nil {
		t.Error("p80 is not a supported percentile but was accepted")
	}
	if _, err := percentile(seq(1000), 100); err == nil {
		t.Error("p100 (the maximum) was accepted")
	}
	// p99 of 999 samples leaves 9 beyond it.
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples was accepted with 9 samples beyond it")
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of an empty sample was accepted")
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		got, err := tailPercentile(c.n)
		if err != nil || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want p%v", c.n, got, err, c.want)
		}
		if _, err := percentile(seq(c.n), got); err != nil {
			t.Errorf("tail p%v of %d samples refused by percentile: %v", got, c.n, err)
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("19 commits have no percentile with 10 beyond it, but one was chosen")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0}, // overlaps a: union 10..50
		{name: "c", start: 60, end: 70, parent: 0},
		{name: "d", start: 90, end: 120, parent: 0}, // clipped to 90..100
		{name: "e", start: 25, end: 45, parent: 2},  // child of b
	}
	self := selfTimes(spans)
	want := map[string]float64{"root": 100 - 40 - 10 - 10, "a": 20, "b": 30 - 20, "c": 10, "d": 30, "e": 20}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("no children cover %d, want 0", got)
	}
	ivs := [][2]int64{{50, 60}, {0, 10}, {5, 20}, {200, 300}, {60, 61}}
	if got := covered(0, 100, ivs); got != 20+11 {
		t.Errorf("covered = %d, want 31", got)
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a := &recorder{spans: []span{{name: "r", parent: -1}, {name: "c", parent: 0}}}
	b := &recorder{spans: []span{{name: "r", parent: -1}, {name: "c", parent: 0}}}
	got := mergeSpans([]*recorder{a, b})
	if got[3].parent != 2 || got[2].parent != -1 || got[1].parent != 0 {
		t.Errorf("merged parents = %d %d %d %d, want -1 0 -1 2", got[0].parent, got[1].parent, got[2].parent, got[3].parent)
	}
}

func TestTimingFSCounts(t *testing.T) {
	fs := newTimingFS(vfs.OS)
	path := filepath.Join(t.TempDir(), "f")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(path)
	if err != nil || string(b) != "helloworld!" {
		t.Fatalf("read back %q, %v", b, err)
	}
	s := fs.c.snapshot()
	if s.writes != 2 || s.writeBytes != 11 || s.syncs != 2 || s.reads != 1 || s.readBytes != 11 {
		t.Errorf("counters = %+v", s)
	}
	if s.writeNs <= 0 || s.syncNs <= 0 {
		t.Errorf("write or sync time not measured: %+v", s)
	}
}

func TestCompareAnswers(t *testing.T) {
	want := answer{1: 0.5, 2: 0.5}
	if err := compareAnswers(answer{1: 0.5, 2: 0.5 + 1e-12}, want); err != nil {
		t.Errorf("equal answers reported different: %v", err)
	}
	if err := compareAnswers(answer{1: 1}, want); err == nil {
		t.Error("missing object not reported")
	}
	if err := compareAnswers(answer{1: 0.5, 2: 0.5, 3: 0.1}, want); err == nil {
		t.Error("extra object not reported")
	}
}

func TestModelFIFO(t *testing.T) {
	base, stream, domain := generate(1, 5, 4, false)
	m := newModel(domain, base, stream)
	ins, _ := m.nextInserts(2)
	del, _ := m.nextDeletes(2)
	m.ackInserts(ins)
	m.ackDeletes(del)
	if del[0] != base[0].ID || del[1] != base[1].ID {
		t.Errorf("deleted %v, want the two oldest %d %d", del, base[0].ID, base[1].ID)
	}
	if m.db.Len() != 5 || m.db.Get(ins[0].ID) == nil || m.db.Get(base[0].ID) != nil {
		t.Errorf("model after one batch holds %d objects", m.db.Len())
	}
	ins2, _ := m.nextInserts(2)
	if _, ok := m.nextInserts(3); ok {
		t.Error("stream of 4 yielded more than 4 inserts")
	}
	if ins2[0].ID == ins[0].ID {
		t.Error("next inserts repeat acknowledged ones")
	}
}

// checkRun fails the test if the run failed an operation or left a
// metric of its mode unmeasured.
func checkRun(t *testing.T, r *run) {
	t.Helper()
	res := r.result()
	if !res.Correct {
		t.Fatalf("run failed %d of %d: %s", res.Failed, res.Attempted, strings.Join(r.errs, "; "))
	}
	defs := r.resultDefs()
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
	if r.trace {
		return
	}
	for _, d := range defs {
		if res.Metrics[d.name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
		}
	}
}

func TestSmokeInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs build indexes")
	}
	specs := map[string]inprocSpec{
		"read-uniform":    {n: 300, readShare: 0.5, batch: 2, commits: 20, streamExtra: 200, recoveries: 1},
		"churn-clustered": {n: 300, clustered: true, readShare: 0.5, batch: 2, commits: 20, streamExtra: 200, recoveries: 2, layoutSeed: 1},
	}
	for name, spec := range specs {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			r := newRun(name, 7, time.Second, trace, dir, filepath.Join(dir, "traces"), "")
			if err := runInproc(r, spec); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			checkRun(t, r)
		}
	}
}

func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run builds pvserve")
	}
	bin := filepath.Join(t.TempDir(), "pvserve")
	if out, err := exec.Command("go", "build", "-o", bin, "pvoronoi/cmd/pvserve").CombinedOutput(); err != nil {
		t.Fatalf("build pvserve: %v\n%s", err, out)
	}
	spec := serveSpec{n: 300, readShare: 0.5, readRate: 1500, mixedReadRate: 300, commitRate: 10, batch: 4, streamExtra: 400, recoveries: 1}
	for _, trace := range []bool{false, true} {
		dir := t.TempDir()
		r := newRun("serve-mixed", 7, 5*time.Second, trace, dir, filepath.Join(dir, "traces"), bin)
		if err := runServe(r, spec); err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		checkRun(t, r)
	}
}

// TestOracleCatchesWrongAnswer makes sure a wrong served answer is counted
// as a failure rather than passing silently.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	base, _, domain := generate(3, 200, 0, false)
	db := newDB(domain, base)
	op := readOp{kind: opPNNQ, q: base[0].Region.Lo}
	right := oracle(db, op)
	wrong := answer{}
	for id, p := range right {
		wrong[id+uncertain.ID(1000)] = p
	}
	r := newRun("read-uniform", 1, time.Second, false, t.TempDir(), "", "")
	checkSamples(r, db, []sampledOp{{op: op, got: right}})
	if r.failed.Load() != 0 {
		t.Fatalf("correct answer failed the oracle: %v", r.errs)
	}
	checkSamples(r, db, []sampledOp{{op: op, got: wrong}})
	if r.failed.Load() != 1 {
		t.Fatal("wrong answer passed the oracle")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names, units and
// workloads the program prints in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	// BENCHMARK.json gates every runnable workload but serve-mixed.
	gated := slices.DeleteFunc(slices.Clone(workloads), func(w string) bool { return w == "serve-mixed" })
	if len(b.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %v", len(b.Workloads), gated)
	}
	for i, w := range b.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, want %s", i, w.Name, gated[i])
		}
	}
}

// TestCPUClocks checks that the CPU clocks count a busy thread's work and
// not the time it sleeps.
func TestCPUClocks(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0 := processCPU(), threadCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := threadCPU() - t0; slept > 10*time.Millisecond {
		t.Errorf("thread CPU clock advanced %v during a 50ms sleep", slept)
	}
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
	}
	busy := threadCPU() - t0
	if busy < 20*time.Millisecond || busy > time.Since(start)+10*time.Millisecond {
		t.Errorf("thread CPU clock advanced %v during a %v busy loop", busy, time.Since(start))
	}
	if p := processCPU() - p0; p < busy {
		t.Errorf("process CPU clock advanced %v, less than the thread's %v", p, busy)
	}
}

// TestResultScalesCPUTimes checks that a gated run divides its CPU times,
// and not heap_mb, by the speed factor.
func TestResultScalesCPUTimes(t *testing.T) {
	r := newRun("read-uniform", 1, time.Second, false, t.TempDir(), "", "")
	r.attempted.Add(1)
	for _, d := range endToEnd {
		r.set(d.name, 10)
	}
	nominal := us(refNominal)
	r.refTimes = []float64{2 * nominal, 0, 2 * nominal} // median 2x nominal
	res := r.result()
	for _, d := range endToEnd {
		want := 5.0
		if d.name == "heap_mb" {
			want = 10
		}
		if got := res.Metrics[d.name].Value; got != want {
			t.Errorf("%s = %v, want %v", d.name, got, want)
		}
	}
}
