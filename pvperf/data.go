package main

import (
	"fmt"
	"math"
	"math/rand"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/pnnq"
	"pvoronoi/internal/uncertain"
)

// Shape of every workload's data and queries.
const (
	dim       = 2
	maxSide   = 60 // |u(o)|, the largest uncertainty-region side
	instances = 64 // pdf samples per object
	clusters  = 10
	knnK      = 8
	groupSize = 4
	groupBox  = 400 // side of the box a group query's points fall in
	probTol   = 1e-9
)

// generate draws n base objects and extra stream objects from one
// dataset.Synthetic generator, so later inserts follow the base
// distribution (clustered inserts drawn from other clusters make every
// update touch an empty region, which is not the workload).
func generate(seed int64, n, extra int, clustered bool) (base, stream []*uncertain.Object, domain geom.Rect) {
	db := dataset.Synthetic(dataset.SyntheticParams{
		N: n + extra, Dim: dim, MaxSide: maxSide, Instances: instances,
		Seed: seed, Clustered: clustered, Clusters: clusters,
	})
	objs := db.Objects()
	return objs[:n], objs[n:], db.Domain
}

func newDB(domain geom.Rect, objs []*uncertain.Object) *uncertain.DB {
	db := uncertain.NewDB(domain)
	for _, o := range objs {
		if err := db.Add(o); err != nil {
			panic(err) // generated IDs are unique
		}
	}
	return db
}

// model is the benchmark's own record of the acknowledged state: every
// object whose insert was acknowledged and whose delete was not, plus the
// insertion order that picks the next objects to delete.
type model struct {
	db     *uncertain.DB
	order  []uncertain.ID // oldest first; order[head:] are live
	head   int
	stream []*uncertain.Object
	next   int
}

func newModel(domain geom.Rect, base, stream []*uncertain.Object) *model {
	m := &model{db: newDB(domain, base), stream: stream}
	for _, o := range base {
		m.order = append(m.order, o.ID)
	}
	return m
}

// nextInserts returns the next b stream objects, without applying them.
// ok is false once the stream is exhausted.
func (m *model) nextInserts(b int) (ins []*uncertain.Object, ok bool) {
	if m.next+b > len(m.stream) {
		return nil, false
	}
	return m.stream[m.next : m.next+b], true
}

// nextDeletes returns the b oldest live IDs, without applying them.
func (m *model) nextDeletes(b int) (del []uncertain.ID, ok bool) {
	if m.head+b > len(m.order) {
		return nil, false
	}
	return m.order[m.head : m.head+b], true
}

// ackInserts records acknowledged inserts.
func (m *model) ackInserts(ins []*uncertain.Object) {
	for _, o := range ins {
		if err := m.db.Add(o); err != nil {
			panic(err) // stream IDs are unique
		}
		m.order = append(m.order, o.ID)
	}
	m.next += len(ins)
}

// ackDeletes records acknowledged deletes of the IDs nextDeletes returned.
func (m *model) ackDeletes(del []uncertain.ID) {
	for _, id := range del {
		if _, err := m.db.Remove(id); err != nil {
			panic(err) // del came from nextDeletes, so the ID is live
		}
	}
	m.head += len(del)
}

// snapshot copies the current state into a DB a store can boot from or an
// oracle can scan while the model moves on.
func (m *model) snapshot() *uncertain.DB { return m.db.Clone() }

type opKind int

const (
	opPNNQ opKind = iota
	opKNN
	opGroupNN
	numOpKinds
)

var opNames = [numOpKinds]string{"pnnq", "knn", "groupnn"}

// readOp is one query: a PNNQ, a possible kNN with k=knnK, or a group NN
// (AggSum) of groupSize points inside a groupBox box.
type readOp struct {
	kind  opKind
	q     geom.Point
	group []geom.Point
}

// mix is the share of each query kind in a read stream.
type mix [numOpKinds]float64

// inprocMix is the in-process read mix; serveMix gives each kind a third so
// that every kind has a p99 at the open loop's lower rate.
var (
	inprocMix = mix{0.7, 0.2, 0.1}
	serveMix  = mix{1.0 / 3, 1.0 / 3, 1.0 / 3}
)

func nextReadOp(rng *rand.Rand, domain geom.Rect, shares mix) readOp {
	point := func(lo, span float64) geom.Point {
		return geom.Point{lo + rng.Float64()*span, lo + rng.Float64()*span}
	}
	span := domain.Hi[0] - domain.Lo[0]
	switch r := rng.Float64(); {
	case r < shares[opPNNQ]:
		return readOp{kind: opPNNQ, q: point(domain.Lo[0], span)}
	case r < shares[opPNNQ]+shares[opKNN]:
		return readOp{kind: opKNN, q: point(domain.Lo[0], span)}
	default:
		corner := point(domain.Lo[0], span-groupBox)
		g := make([]geom.Point, groupSize)
		for i := range g {
			g[i] = geom.Point{corner[0] + rng.Float64()*groupBox, corner[1] + rng.Float64()*groupBox}
		}
		return readOp{kind: opGroupNN, group: g}
	}
}

// answer is a query result as object → probability.
type answer map[uncertain.ID]float64

func fromResults(rs []pnnq.Result) answer {
	a := make(answer, len(rs))
	for _, r := range rs {
		a[r.ID] = r.Prob
	}
	return a
}

func fromKNN(rs []pnnq.KNNResult) answer {
	a := make(answer, len(rs))
	for _, r := range rs {
		a[r.ID] = r.Prob
	}
	return a
}

// oracle answers op by linear scans over db: bruteforce for PNNQ (Step 1
// then the qualification probabilities over the possible set, which equal
// the full-database probabilities because no other object can be closer)
// and the extquery scans for kNN and group NN.
func oracle(db *uncertain.DB, op readOp) answer {
	switch op.kind {
	case opPNNQ:
		ids := bruteforce.PossibleNN(db, op.q)
		sub := uncertain.NewDB(db.Domain)
		for _, id := range ids {
			_ = sub.Add(db.Get(id))
		}
		return answer(bruteforce.QualificationProbs(sub, op.q))
	case opKNN:
		ids := extquery.KNNCandidates(db, op.q, knnK)
		return fromKNN(extquery.KNNProbs(db, ids, op.q, knnK))
	default:
		ids := extquery.GroupNNCandidates(db, op.group, extquery.AggSum)
		return fromResults(extquery.GroupNNProbs(db, ids, op.group, extquery.AggSum))
	}
}

// compareAnswers reports the first object whose probability differs by
// more than probTol (an object missing from one side counts as 0).
func compareAnswers(got, want answer) error {
	for id, p := range want {
		if math.Abs(got[id]-p) > probTol {
			return fmt.Errorf("object %d: got probability %.12g, want %.12g", id, got[id], p)
		}
	}
	for id, p := range got {
		if _, ok := want[id]; !ok && p > probTol {
			return fmt.Errorf("object %d: got probability %.12g, want 0", id, p)
		}
	}
	return nil
}

// sampledOp is a query answered during a measured phase, kept for the
// oracle check after the phase.
type sampledOp struct {
	op  readOp
	got answer
}
