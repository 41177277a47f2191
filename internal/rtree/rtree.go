// Package rtree implements an R*-tree (Beckmann et al., SIGMOD 1990) over
// d-dimensional rectangles, the access method the paper uses both as the
// PNNQ Step-1 baseline (branch-and-prune, Cheng et al. 2004) and as the
// substrate for nearest-neighbor browsing during PV-index construction
// (Hjaltason–Samet distance browsing, used by the FS and IS C-set strategies).
//
// The tree is main-memory resident but models the paper's disk layout: one
// leaf node corresponds to one disk page, and every leaf visited during a
// query counts one I/O against the tree's counter (Figs. 9(c), 9(g)).
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"pvoronoi/internal/geom"
)

// Item is a stored entry: a rectangle and the caller's identifier.
type Item struct {
	Rect geom.Rect
	ID   uint32
}

// DefaultFanout matches the paper's experimental setting.
const DefaultFanout = 100

// cowTag identifies the mutation session that owns a node. Nodes whose tag
// differs from the tree handle's are shared with older versions and must be
// path-copied before mutation (see CloneCOW).
type cowTag struct{ _ byte }

// Tree is an R*-tree. Not safe for concurrent mutation, but a sealed handle
// (one that is no longer mutated) may be read concurrently while a CloneCOW
// descendant is being mutated: mutations never touch shared nodes.
type Tree struct {
	dim        int
	maxEntries int
	minEntries int
	root       *node
	size       int
	sess       *cowTag

	// scratch holds splitNode's prefix/suffix MBR buffers (mutation-only
	// state, so never shared between handles).
	scratch []geom.Rect

	// leafIO counts leaf-node accesses during queries — the simulated
	// disk reads of the paper's experiments. Atomic so concurrent readers
	// (e.g. parallel index construction) do not race.
	leafIO atomic.Int64
}

type node struct {
	owner   *cowTag
	level   int // 0 = leaf
	entries []entry
}

// entry is either a child pointer (internal nodes) or an item (leaves).
type entry struct {
	rect  geom.Rect
	child *node
	item  Item
}

func (n *node) leaf() bool { return n.level == 0 }

func (n *node) mbr() geom.Rect { return mbrOf(n.entries) }

// New returns an empty R*-tree for dim-dimensional data with the given
// fanout (maximum entries per node; DefaultFanout if <= 0). The minimum
// fill is 40% of the fanout, per the R*-tree paper.
func New(dim, fanout int) *Tree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 4 {
		fanout = 4
	}
	minE := fanout * 2 / 5
	if minE < 1 {
		minE = 1
	}
	sess := new(cowTag)
	return &Tree{
		dim:        dim,
		maxEntries: fanout,
		minEntries: minE,
		root:       &node{owner: sess, level: 0},
		sess:       sess,
	}
}

// BulkLoad returns a tree holding items, packed bottom-up with
// Sort-Tile-Recursive (Leutenegger, Lopez & Edgington, ICDE 1997) instead
// of one R* insertion per item: O(n log n) sorting on rectangle centers and
// no chooseSubtree, reinsert or split work. Each level spreads its entries
// evenly over ⌈len/fanout⌉ nodes, so every non-root node holds at least
// the R* minimum fill and the result satisfies the same invariants as an
// insert-built tree; later Insert and Delete calls maintain it by the R*
// rules. fanout is interpreted as in New. items is not modified; the tree
// shares the items' rectangles, as Insert does. Center order is undefined
// for NaN coordinates, which callers must reject beforehand.
func BulkLoad(dim, fanout int, items []Item) *Tree {
	t := New(dim, fanout)
	if len(items) == 0 {
		return t
	}
	level := make([]entry, len(items))
	for i, it := range items {
		if it.Rect.Dim() != dim {
			panic(fmt.Sprintf("rtree: item dim %d, tree dim %d", it.Rect.Dim(), dim))
		}
		level[i] = entry{rect: it.Rect, item: it}
	}
	height := 0
	for len(level) > t.maxEntries {
		groups := t.strGroups(level)
		parents := make([]entry, len(groups))
		for i, g := range groups {
			parents[i] = entry{rect: mbrOf(g), child: &node{owner: t.sess, level: height, entries: g}}
		}
		level = parents
		height++
	}
	t.root = &node{owner: t.sess, level: height, entries: level}
	t.size = len(items)
	return t
}

// strGroups tiles es (sorting it in place) into p = ⌈len(es)/maxEntries⌉
// groups of ⌊len/p⌋ or ⌈len/p⌉ entries: sort on the first axis's centers,
// cut into ⌈p^(1/d)⌉ slabs, and recurse on the remaining axes within each
// slab. Each group is capped at its length so that a later append to one
// node's entries can never overwrite its neighbor's.
func (t *Tree) strGroups(es []entry) [][]entry {
	p := (len(es) + t.maxEntries - 1) / t.maxEntries
	groups := make([][]entry, 0, p)
	var tile func(es []entry, p, axis int)
	tile = func(es []entry, p, axis int) {
		if p == 1 {
			groups = append(groups, es[:len(es):len(es)])
			return
		}
		sortByCenter(es, axis)
		slabs := p // the last axis cuts straight into groups
		if axis < t.dim-1 {
			slabs = int(math.Ceil(math.Pow(float64(p), 1/float64(t.dim-axis))))
			slabs = min(slabs, p)
		}
		// Slab i takes groups [i*p/slabs, (i+1)*p/slabs) and their share
		// of the entries, so group sizes stay within one of each other.
		for i := 0; i < slabs; i++ {
			g0, g1 := i*p/slabs, (i+1)*p/slabs
			lo, hi := g0*len(es)/p, g1*len(es)/p
			if axis == t.dim-1 {
				groups = append(groups, es[lo:hi:hi])
			} else {
				tile(es[lo:hi], g1-g0, axis+1)
			}
		}
	}
	tile(es, p, 0)
	return groups
}

// sortByCenter orders es by the center of their rectangles on axis (the
// sum Lo+Hi orders centers without the halving).
func sortByCenter(es []entry, axis int) {
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Compare(a.rect.Lo[axis]+a.rect.Hi[axis], b.rect.Lo[axis]+b.rect.Hi[axis])
	})
}

// CloneCOW returns a mutable copy-on-write descendant of t that initially
// shares every node. Mutations of the clone path-copy the nodes they touch
// and never modify shared ones, so t (now sealed by convention) stays
// readable concurrently — the region tree's half of the index's MVCC
// versioning. Cost is O(1) plus one node copy per node on each subsequent
// mutation path.
func (t *Tree) CloneCOW() *Tree {
	c := &Tree{
		dim:        t.dim,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
		root:       t.root,
		size:       t.size,
		sess:       new(cowTag),
	}
	c.leafIO.Store(t.leafIO.Load())
	return c
}

// ownedNode returns n if the current session already owns it, otherwise a
// copy owned by the session (entries slice cloned; child pointers and rects
// shared — geometry values are never mutated in place). The caller must
// store the returned pointer back into the parent.
func (t *Tree) ownedNode(n *node) *node {
	if n.owner == t.sess {
		return n
	}
	c := &node{owner: t.sess, level: n.level}
	c.entries = append(make([]entry, 0, len(n.entries)+1), n.entries...)
	return c
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Height returns the tree height (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// LeafIO returns the number of leaf-node accesses recorded since the last
// ResetLeafIO — the simulated disk reads of the paper's experiments.
func (t *Tree) LeafIO() int64 { return t.leafIO.Load() }

// ResetLeafIO zeroes the leaf access counter.
func (t *Tree) ResetLeafIO() { t.leafIO.Store(0) }

// pendingEntry is an entry awaiting (re)insertion at a given level.
type pendingEntry struct {
	e     entry
	level int
}

// Insert adds an item to the tree.
func (t *Tree) Insert(item Item) {
	if item.Rect.Dim() != t.dim {
		panic(fmt.Sprintf("rtree: item dim %d, tree dim %d", item.Rect.Dim(), t.dim))
	}
	t.insertAtLevel(entry{rect: item.Rect, item: item}, 0)
	t.size++
}

// insertAtLevel places e into a node at the given level, applying R*
// overflow treatment (forced reinsert once per level, then split). Forced
// reinserts are deferred to a worklist so the recursive descent never
// mutates nodes on its own path.
func (t *Tree) insertAtLevel(e entry, level int) {
	queue := []pendingEntry{{e, level}}
	reinserted := make(map[int]bool)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		t.root = t.ownedNode(t.root)
		split := t.insertRec(t.root, p.e, p.level, reinserted, &queue)
		if split != nil {
			// Root split: grow the tree.
			newRoot := &node{owner: t.sess, level: t.root.level + 1}
			newRoot.entries = []entry{
				{rect: t.root.mbr(), child: t.root},
				{rect: split.mbr(), child: split},
			}
			t.root = newRoot
		}
	}
}

// insertRec descends to the target level, inserts, and handles overflow.
// n must be owned by the current session; children are path-copied before
// descent. It returns a new sibling if n was split. Entries evicted by
// forced reinsert are appended to queue for the caller's worklist.
func (t *Tree) insertRec(n *node, e entry, level int, reinserted map[int]bool, queue *[]pendingEntry) *node {
	if n.level == level {
		n.entries = append(n.entries, e)
	} else {
		idx := t.chooseSubtree(n, e.rect)
		child := t.ownedNode(n.entries[idx].child)
		n.entries[idx].child = child
		split := t.insertRec(child, e, level, reinserted, queue)
		n.entries[idx].rect = child.mbr()
		if split != nil {
			n.entries = append(n.entries, entry{rect: split.mbr(), child: split})
		}
	}
	if len(n.entries) <= t.maxEntries {
		return nil
	}
	// Overflow treatment: forced reinsert once per level per insertion,
	// except at the root.
	if n != t.root && !reinserted[n.level] {
		reinserted[n.level] = true
		t.forcedReinsert(n, queue)
		return nil
	}
	return t.splitNode(n)
}

// chooseSubtree picks the child to descend into, per R*: at the level above
// leaves minimize overlap enlargement; above that minimize area enlargement.
// It allocates nothing: every volume is computed in place, with the same
// products in the same order as the Union/Intersection forms, so ties break
// exactly as they would with materialized rectangles.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	best := 0
	if n.level == 1 {
		// Minimum overlap enlargement, ties by area enlargement then area.
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for i, e := range n.entries {
			var overlapBefore, overlapAfter float64
			for j, f := range n.entries {
				if i == j {
					continue
				}
				overlapBefore += e.rect.OverlapVolume(f.rect)
				overlapAfter += enlargedOverlapVolume(e.rect, r, f.rect)
			}
			dOverlap := overlapAfter - overlapBefore
			area := e.rect.Volume()
			enl := e.rect.UnionVolume(r) - area
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && enl < bestEnl) ||
				(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		area := e.rect.Volume()
		enl := e.rect.UnionVolume(r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// enlargedOverlapVolume is e.Union(r).OverlapVolume(f) without
// materializing the union.
func enlargedOverlapVolume(e, r, f geom.Rect) float64 {
	v := 1.0
	for i := range e.Lo {
		lo := math.Max(math.Min(e.Lo[i], r.Lo[i]), f.Lo[i])
		hi := math.Min(math.Max(e.Hi[i], r.Hi[i]), f.Hi[i])
		if lo > hi {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// forcedReinsert removes the 30% of n's entries whose centers are farthest
// from n's MBR center and defers them to the worklist (close-reinsert order).
func (t *Tree) forcedReinsert(n *node, queue *[]pendingEntry) {
	center := n.mbr().Center()
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		des[i] = distEntry{e, geom.Dist2(e.rect.Center(), center)}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })
	p := len(des) * 3 / 10
	if p < 1 {
		p = 1
	}
	keep := des[:len(des)-p]
	evict := des[len(des)-p:]
	n.entries = n.entries[:0]
	for _, de := range keep {
		n.entries = append(n.entries, de.e)
	}
	// Close reinsert: nearest evicted entries first.
	for _, de := range evict {
		*queue = append(*queue, pendingEntry{de.e, n.level})
	}
}

// splitNode performs the R* topological split and returns the new sibling.
// The margin, overlap and area scores read the prefix and suffix MBRs of
// each sort order from the tree's scratch rectangles, so scoring allocates
// nothing; the values equal those of materialized MBRs, so the chosen split
// does too.
func (t *Tree) splitNode(n *node) *node {
	entries := n.entries
	m := t.minEntries
	pre, suf := t.splitScratch(len(entries))

	// Choose split axis: minimize total margin over all distributions.
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < t.dim; axis++ {
		for _, byUpper := range [2]bool{false, true} {
			sortEntries(entries, axis, byUpper)
			sweepMBRs(entries, pre, suf)
			var margin float64
			for k := m; k <= len(entries)-m; k++ {
				margin += pre[k].Margin() + suf[k].Margin()
			}
			if margin < bestMargin {
				bestMargin, bestAxis = margin, axis
			}
		}
	}

	// Choose distribution along the best axis: minimize overlap, tie by area.
	bestK, bestUpper := -1, false
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, byUpper := range [2]bool{false, true} {
		sortEntries(entries, bestAxis, byUpper)
		sweepMBRs(entries, pre, suf)
		for k := m; k <= len(entries)-m; k++ {
			left, right := pre[k], suf[k]
			overlap := left.OverlapVolume(right)
			area := left.Volume() + right.Volume()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea, bestK, bestUpper = overlap, area, k, byUpper
			}
		}
	}
	sortEntries(entries, bestAxis, bestUpper)

	sibling := &node{owner: t.sess, level: n.level}
	sibling.entries = append(sibling.entries, entries[bestK:]...)
	n.entries = entries[:bestK]
	return sibling
}

// splitScratch returns the tree's prefix and suffix MBR buffers for an
// overflowing node of n <= maxEntries+1 entries, allocating them on the
// handle's first split.
func (t *Tree) splitScratch(n int) (pre, suf []geom.Rect) {
	if t.scratch == nil {
		k := 2 * (t.maxEntries + 2)
		buf := make([]float64, 2*t.dim*k)
		t.scratch = make([]geom.Rect, k)
		for i := range t.scratch {
			lo := buf[2*t.dim*i:]
			t.scratch[i] = geom.Rect{Lo: lo[:t.dim:t.dim], Hi: lo[t.dim : 2*t.dim : 2*t.dim]}
		}
	}
	return t.scratch[:n+1], t.scratch[n+1 : 2*(n+1)]
}

// sweepMBRs fills pre[k] with the MBR of es[:k] (k >= 1) and suf[k] with
// the MBR of es[k:] (k < len(es)).
func sweepMBRs(es []entry, pre, suf []geom.Rect) {
	n := len(es)
	setRect(pre[1], es[0].rect)
	for k := 2; k <= n; k++ {
		setRect(pre[k], pre[k-1])
		growTo(pre[k], es[k-1].rect)
	}
	setRect(suf[n-1], es[n-1].rect)
	for k := n - 2; k >= 0; k-- {
		setRect(suf[k], suf[k+1])
		growTo(suf[k], es[k].rect)
	}
}

// setRect copies s's corners into r's buffers.
func setRect(r, s geom.Rect) {
	copy(r.Lo, s.Lo)
	copy(r.Hi, s.Hi)
}

func sortEntries(es []entry, axis int, byUpper bool) {
	slices.SortFunc(es, func(a, b entry) int {
		if byUpper {
			if c := cmp.Compare(a.rect.Hi[axis], b.rect.Hi[axis]); c != 0 {
				return c
			}
			return cmp.Compare(a.rect.Lo[axis], b.rect.Lo[axis])
		}
		if c := cmp.Compare(a.rect.Lo[axis], b.rect.Lo[axis]); c != 0 {
			return c
		}
		return cmp.Compare(a.rect.Hi[axis], b.rect.Hi[axis])
	})
}

// mbrOf returns a freshly allocated MBR of es (one allocation for both
// corners): stored rectangles are shared across copy-on-write versions and
// never mutated in place.
func mbrOf(es []entry) geom.Rect {
	d := len(es[0].rect.Lo)
	buf := make([]float64, 2*d)
	r := geom.Rect{Lo: buf[:d:d], Hi: buf[d:]}
	copy(r.Lo, es[0].rect.Lo)
	copy(r.Hi, es[0].rect.Hi)
	for _, e := range es[1:] {
		growTo(r, e.rect)
	}
	return r
}

// growTo widens r in place to cover s, with the same min/max per
// coordinate as r.Union(s).
func growTo(r, s geom.Rect) {
	for i := range r.Lo {
		r.Lo[i] = math.Min(r.Lo[i], s.Lo[i])
		r.Hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
}

// Delete removes the item with the given rect and ID. It reports whether an
// item was removed. Underfull nodes are condensed and their entries
// reinserted, per the classic R-tree deletion algorithm.
func (t *Tree) Delete(item Item) bool {
	path, idx := t.findLeaf(t.root, item, nil)
	if path == nil {
		return false
	}
	// Materialize an owned copy of the found path top-down (the search
	// itself is read-only, so shared nodes it crossed stay untouched).
	path[0] = t.ownedNode(path[0])
	t.root = path[0]
	for i := 1; i < len(path); i++ {
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == path[i] {
				path[i] = t.ownedNode(path[i])
				parent.entries[j].child = path[i]
				break
			}
		}
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(path)
	// Shrink the root while it is an internal node with a single child.
	for !t.root.leaf() && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = &node{owner: t.sess, level: 0}
	}
	return true
}

// findLeaf returns the root-to-leaf path to the leaf containing item and the
// entry index within that leaf, or (nil, -1).
func (t *Tree) findLeaf(n *node, item Item, path []*node) ([]*node, int) {
	path = append(path, n)
	if n.leaf() {
		for i, e := range n.entries {
			if e.item.ID == item.ID && e.rect.Equal(item.Rect) {
				return path, i
			}
		}
		return nil, -1
	}
	for _, e := range n.entries {
		if e.rect.ContainsRect(item.Rect) {
			if p, i := t.findLeaf(e.child, item, path); p != nil {
				return p, i
			}
		}
	}
	return nil, -1
}

// condense walks the deletion path bottom-up, removing underfull nodes and
// reinserting their entries at their original level.
func (t *Tree) condense(path []*node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		childIdx := -1
		for j, e := range parent.entries {
			if e.child == n {
				childIdx = j
				break
			}
		}
		if childIdx < 0 {
			continue
		}
		if len(n.entries) < t.minEntries {
			parent.entries = append(parent.entries[:childIdx], parent.entries[childIdx+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.level})
			}
		} else {
			parent.entries[childIdx].rect = n.mbr()
		}
	}
	// Entries of a dissolved node re-enter at the node's level.
	for _, o := range orphans {
		t.insertAtLevel(o.e, o.level)
	}
}

// Search appends to dst all items whose rectangles intersect r, counting
// leaf I/O, and returns the extended slice.
func (t *Tree) Search(r geom.Rect, dst []Item) []Item {
	return t.search(t.root, r, dst)
}

func (t *Tree) search(n *node, r geom.Rect, dst []Item) []Item {
	if n.leaf() {
		t.leafIO.Add(1)
		for _, e := range n.entries {
			if e.rect.Intersects(r) {
				dst = append(dst, e.item)
			}
		}
		return dst
	}
	for _, e := range n.entries {
		if e.rect.Intersects(r) {
			dst = t.search(e.child, r, dst)
		}
	}
	return dst
}

// All appends every stored item to dst.
func (t *Tree) All(dst []Item) []Item {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			for _, e := range n.entries {
				dst = append(dst, e.item)
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return dst
}

// DistFunc maps an item rectangle to a non-negative key for NN browsing.
// It must be lower-bounded by the MinDist of any rectangle enclosing the
// item's rectangle (true for both MinDist itself and center distance).
type DistFunc func(geom.Rect) float64

// MinDistTo returns the DistFunc ordering by minimum distance from q.
func MinDistTo(q geom.Point) DistFunc {
	return func(r geom.Rect) float64 { return r.MinDist(q) }
}

// CenterDistTo returns the DistFunc ordering by distance of rectangle
// centers from q — the "mean position" ordering of the FS strategy.
func CenterDistTo(q geom.Point) DistFunc {
	return func(r geom.Rect) float64 { return geom.Dist(r.Center(), q) }
}

// nnHeapItem is a priority-queue element for distance browsing.
type nnHeapItem struct {
	dist  float64
	node  *node // nil for item entries
	item  Item
	order int64 // tie-break for determinism
}

// nnHeap is a binary min-heap on (dist, order). Every push takes a fresh
// order, so the pop sequence is fully determined. The typed push and pop
// keep entries out of interfaces: a browse allocates only as the slice
// grows.
type nnHeap []nnHeapItem

func (h nnHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].order < h[j].order
}

func (h *nnHeap) push(x nnHeapItem) {
	*h = append(*h, x)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *nnHeap) pop() nnHeapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	top := s[n]
	s[n] = nnHeapItem{} // drop the node and rectangle references
	*h = s[:n]
	return top
}

// NNIter browses items in non-decreasing order of a distance function
// (Hjaltason & Samet, TODS 1999). Create with NewNNIter; call Next until
// ok == false.
type NNIter struct {
	tree    *Tree
	q       geom.Point
	distFn  DistFunc
	h       nnHeap
	counter int64
}

// NewNNIter starts an incremental NN browse from q. distFn orders the
// results; pass MinDistTo(q) or CenterDistTo(q).
func NewNNIter(t *Tree, q geom.Point, distFn DistFunc) *NNIter {
	it := &NNIter{tree: t, q: q, distFn: distFn}
	if t.size > 0 {
		it.h.push(nnHeapItem{dist: t.root.mbr().MinDist(q), node: t.root})
	}
	return it
}

// Next returns the next item in distance order.
func (it *NNIter) Next() (Item, float64, bool) {
	for len(it.h) > 0 {
		top := it.h.pop()
		if top.node == nil {
			return top.item, top.dist, true
		}
		n := top.node
		if n.leaf() {
			it.tree.leafIO.Add(1)
			for _, e := range n.entries {
				it.counter++
				it.h.push(nnHeapItem{dist: it.distFn(e.rect), item: e.item, order: it.counter})
			}
			continue
		}
		for _, e := range n.entries {
			it.counter++
			it.h.push(nnHeapItem{dist: e.rect.MinDist(it.q), node: e.child, order: it.counter})
		}
	}
	return Item{}, 0, false
}

// PossibleNN implements the paper's R-tree baseline for PNNQ Step 1
// (branch-and-prune, Cheng et al. 2004): it returns the IDs of all items o
// with distmin(o, q) <= min_o' distmax(o', q), visiting only nodes whose
// MinDist does not exceed the running best max-distance.
func (t *Tree) PossibleNN(q geom.Point) []uint32 {
	if t.size == 0 {
		return nil
	}
	bestMax := math.Inf(1)
	type cand struct {
		id      uint32
		minDist float64
	}
	var cands []cand

	var h nnHeap
	var counter int64
	h.push(nnHeapItem{dist: t.root.mbr().MinDist(q), node: t.root})
	for len(h) > 0 {
		top := h.pop()
		if top.dist > bestMax {
			break // all remaining nodes are farther than the pruning bound
		}
		n := top.node
		if n.leaf() {
			t.leafIO.Add(1)
			for _, e := range n.entries {
				minD := e.rect.MinDist(q)
				if maxD := e.rect.MaxDist(q); maxD < bestMax {
					bestMax = maxD
				}
				cands = append(cands, cand{e.item.ID, minD})
			}
			continue
		}
		for _, e := range n.entries {
			d := e.rect.MinDist(q)
			if d <= bestMax {
				counter++
				h.push(nnHeapItem{dist: d, node: e.child, order: counter})
			}
		}
	}
	var out []uint32
	for _, c := range cands {
		if c.minDist <= bestMax {
			out = append(out, c.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	var count int
	var walk func(n *node, isRoot bool) (geom.Rect, error)
	walk = func(n *node, isRoot bool) (geom.Rect, error) {
		if len(n.entries) == 0 {
			if isRoot && n.leaf() {
				return geom.Rect{}, nil
			}
			return geom.Rect{}, fmt.Errorf("empty non-root node at level %d", n.level)
		}
		if !isRoot && len(n.entries) < t.minEntries {
			return geom.Rect{}, fmt.Errorf("underfull node: %d < %d", len(n.entries), t.minEntries)
		}
		if len(n.entries) > t.maxEntries {
			return geom.Rect{}, fmt.Errorf("overfull node: %d > %d", len(n.entries), t.maxEntries)
		}
		if n.leaf() {
			count += len(n.entries)
			return n.mbr(), nil
		}
		for _, e := range n.entries {
			if e.child.level != n.level-1 {
				return geom.Rect{}, fmt.Errorf("level mismatch: child %d under parent %d", e.child.level, n.level)
			}
			childMBR, err := walk(e.child, false)
			if err != nil {
				return geom.Rect{}, err
			}
			if !e.rect.Equal(childMBR) {
				return geom.Rect{}, fmt.Errorf("stale MBR at level %d: have %v, children span %v", n.level, e.rect, childMBR)
			}
		}
		return n.mbr(), nil
	}
	if _, err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}
