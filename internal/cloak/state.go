package cloak

import (
	"math"
	"slices"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// tables are the immutable per-graph lookups the dense state reads. An
// Engine builds them once in NewEngine; EnumerateReversals, which takes a
// bare graph, builds its own per call.
type tables struct {
	g *roadnet.Graph
	// rank[s] is the position of segment s in the paper's canonical order
	// (ascending length, ties by ID) over ALL segments. The order is total,
	// so any subset sorted by rank is that subset in canonical order:
	// table rows and columns never need a sort, only integer compares.
	rank []int32
	// bounds[s] is g.SegmentBounds(s); ends[s] are its two junctions.
	bounds []geom.BBox
	ends   [][2]roadnet.JunctionID
}

func newTables(g *roadnet.Graph) *tables {
	n := g.NumSegments()
	order := make([]roadnet.SegmentID, n)
	for i := range order {
		order[i] = roadnet.SegmentID(i)
	}
	g.SortCanonical(order)
	tb := &tables{g: g, rank: make([]int32, n), bounds: make([]geom.BBox, n),
		ends: make([][2]roadnet.JunctionID, n)}
	for r, s := range order {
		seg, _ := g.Segment(s)
		tb.rank[s] = int32(r)
		tb.bounds[s] = g.SegmentBounds(s)
		tb.ends[s] = [2]roadnet.JunctionID{seg.A, seg.B}
	}
	return tb
}

// boundsOf returns the union of the segments' bounding boxes: the value
// folding BBox.Union over them in any order yields (min and max are exact
// and order-independent), computed with the inlined builtins.
func (tb *tables) boundsOf(ids []roadnet.SegmentID) geom.BBox {
	if len(ids) == 0 {
		return geom.BBox{}
	}
	lo, hi := tb.bounds[ids[0]].Min, tb.bounds[ids[0]].Max
	for _, id := range ids[1:] {
		b := &tb.bounds[id]
		lo.X, lo.Y = min(lo.X, b.Min.X), min(lo.Y, b.Min.Y)
		hi.X, hi.Y = max(hi.X, b.Max.X), max(hi.Y, b.Max.Y)
	}
	return geom.NewBBox(lo, hi)
}

// search returns the position in the rank-ordered list at which s sits or
// would be inserted.
func (tb *tables) search(list []roadnet.SegmentID, s roadnet.SegmentID) int {
	r := tb.rank[s]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tb.rank[list[mid]] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// index returns the position of s in the rank-ordered list, or -1.
func (tb *tables) index(list []roadnet.SegmentID, s roadnet.SegmentID) int {
	if i := tb.search(list, s); i < len(list) && list[i] == s {
		return i
	}
	return -1
}

func (tb *tables) insert(list []roadnet.SegmentID, s roadnet.SegmentID) []roadnet.SegmentID {
	i := tb.search(list, s)
	list = append(list, s)
	copy(list[i+1:], list[i:])
	list[i] = s
	return list
}

func (tb *tables) remove(list []roadnet.SegmentID, s roadnet.SegmentID) []roadnet.SegmentID {
	i := tb.search(list, s)
	return append(list[:i], list[i+1:]...)
}

// cell holds a state's per-segment facts side by side, so that a walk
// touching a segment touches one cache line. Each is stamped rather than
// cleared: member and adjAt are live only while they equal the state's
// epoch (anything older reads as "not a member" / zero), mark while it
// equals the current walk's stamp.
type cell struct {
	member uint32 // == epoch: the segment is in the region
	adjAt  uint32 // == epoch: adjN is live
	adjN   int32  // number of member neighbours
	mark   uint32 // connectivity-walk visit stamp
}

// state is the mutable cloaking-region state shared by expansion and
// reversal, kept dense: every per-segment fact lives in a segment-indexed
// array that is epoch-stamped instead of cleared, and members and
// frontier are slices held in canonical order. add and remove cost
// O(degree) array work plus two short memmoves and allocate nothing once
// the slices have grown; nothing is recomputed per step except the
// bounding box, and that only when a removed segment carried one of its
// extremes. A state lives in an arena and is reused call after call.
type state struct {
	tb *tables

	epoch uint32
	cells []cell
	dens  []int // density of s as sampled when it was added

	// rows are the members and front the frontier — every non-member with
	// at least one member neighbour — both in canonical order: the rows
	// and (before the tolerance filter) the columns of the Fig. 2 table.
	rows  []roadnet.SegmentID
	front []roadnet.SegmentID
	can   []roadnet.SegmentID // candidates() scratch

	bbox geom.BBox
	// sigma is the active spatial tolerance in meters (0 = unbounded).
	sigma float64
	// users is the sum of density over members; only maintained when
	// density != nil (the de-anonymizer runs without density).
	users   int
	density DensityFunc

	// Connectivity-walk scratch: the current visit stamp and the queues.
	gen           uint32
	queue, queueB []roadnet.SegmentID
}

// reset empties the region for a new call. Stamps from earlier calls go
// stale by the epoch bump; only a wrapped epoch clears the arrays.
func (st *state) reset(density DensityFunc) {
	if st.epoch == math.MaxUint32 {
		clear(st.cells)
		st.epoch, st.gen = 0, 0
	}
	st.epoch++
	st.rows, st.front = st.rows[:0], st.front[:0]
	st.bbox, st.sigma, st.users, st.density = geom.BBox{}, 0, 0, density
}

// size returns the number of member segments.
func (st *state) size() int { return len(st.rows) }

// has reports membership.
func (st *state) has(id roadnet.SegmentID) bool {
	return id >= 0 && int(id) < len(st.cells) && st.cells[id].member == st.epoch
}

// memberNeighbors returns how many of id's neighbours are members.
func (st *state) memberNeighbors(id roadnet.SegmentID) int32 {
	if c := &st.cells[id]; c.adjAt == st.epoch {
		return c.adjN
	}
	return 0
}

// bump adjusts id's member-neighbour count and returns the new value.
func (st *state) bump(id roadnet.SegmentID, d int32) int32 {
	c := &st.cells[id]
	if c.adjAt != st.epoch {
		c.adjAt, c.adjN = st.epoch, 0
	}
	c.adjN += d
	return c.adjN
}

// add inserts a segment, moving it from the frontier to the rows and
// pulling its outside neighbours onto the frontier.
func (st *state) add(id roadnet.SegmentID) {
	if st.has(id) {
		return
	}
	st.cells[id].member = st.epoch
	st.rows = st.tb.insert(st.rows, id)
	if st.memberNeighbors(id) > 0 {
		st.front = st.tb.remove(st.front, id)
	}
	for _, nb := range st.tb.g.Neighbors(id) {
		if st.bump(nb, 1) == 1 && !st.has(nb) {
			st.front = st.tb.insert(st.front, nb)
		}
	}
	st.bbox = st.bbox.Union(st.tb.bounds[id])
	if st.density != nil {
		st.dens[id] = st.density(id)
		st.users += st.dens[id]
	}
}

// remove deletes a segment: the exact inverse of add. The bounding box is
// a min/max over members and so independent of order; it is rebuilt only
// when the removed segment's bounds touch one of its extremes — in every
// other case some remaining member still carries each extreme and the
// box is unchanged, bit for bit.
func (st *state) remove(id roadnet.SegmentID) {
	if !st.has(id) {
		return
	}
	st.cells[id].member = 0 // epochs start at 1
	st.rows = st.tb.remove(st.rows, id)
	for _, nb := range st.tb.g.Neighbors(id) {
		if st.bump(nb, -1) == 0 && !st.has(nb) {
			st.front = st.tb.remove(st.front, nb)
		}
	}
	if st.memberNeighbors(id) > 0 {
		st.front = st.tb.insert(st.front, id)
	}
	if b := st.tb.bounds[id]; b.Min.X == st.bbox.Min.X || b.Min.Y == st.bbox.Min.Y ||
		b.Max.X == st.bbox.Max.X || b.Max.Y == st.bbox.Max.Y {
		st.bbox = st.tb.boundsOf(st.rows)
	}
	if st.density != nil {
		st.users -= st.dens[id]
	}
}

// withinTolerance reports whether adding segment id keeps the region's
// bounding-box diagonal at or under the active tolerance: exactly
// bbox.Union(bounds[id]).Diagonal() <= sigma, decided without the Hypot
// call wherever the squared lengths are not within rounding of each other.
// It runs once per frontier segment per search node.
func (st *state) withinTolerance(id roadnet.SegmentID) bool {
	if st.sigma <= 0 {
		return true
	}
	b := &st.tb.bounds[id]
	if st.bbox.Empty() {
		return b.Diagonal() <= st.sigma
	}
	// Union's corners: a segment's own Min is never above its Max, and the
	// min/max builtins order -0 and +0 as math.Min/Max do.
	dx := min(st.bbox.Min.X, b.Min.X) - max(st.bbox.Max.X, b.Max.X)
	dy := min(st.bbox.Min.Y, b.Min.Y) - max(st.bbox.Max.Y, b.Max.Y)
	d2, s2 := dx*dx+dy*dy, st.sigma*st.sigma
	const slack = 1e-9 // far above the few ulps Hypot and the squares can disagree by
	switch {
	case d2 < s2*(1-slack):
		return true
	case d2 > s2*(1+slack):
		return false
	}
	return math.Hypot(dx, dy) <= st.sigma
}

// candidates returns the RGE candidate set CanA: every segment adjacent to
// the region, not in it, whose addition respects the spatial tolerance —
// in canonical order (the table's columns). With no tolerance that is the
// frontier itself; otherwise the frontier filtered into scratch. The
// result is a view, valid until the state next changes.
func (st *state) candidates() []roadnet.SegmentID {
	if st.sigma <= 0 {
		return st.front
	}
	st.can = st.can[:0]
	for _, id := range st.front {
		if st.withinTolerance(id) {
			st.can = append(st.can, id)
		}
	}
	return st.can
}

// eligible reports whether segment id could be selected as the next
// addition: outside the region, adjacent to it, and within tolerance.
func (st *state) eligible(id roadnet.SegmentID) bool {
	return st.tb.g.HasSegment(id) && !st.has(id) &&
		st.memberNeighbors(id) > 0 && st.withinTolerance(id)
}

// nextGen opens a fresh pair of visit stamps (gen-1 and gen) for one walk.
func (st *state) nextGen() {
	if st.gen >= math.MaxUint32-1 {
		for i := range st.cells {
			st.cells[i].mark = 0
		}
		st.gen = 0
	}
	st.gen += 2
}

// connected reports whether the region is connected under segment
// adjacency, by one full walk. The empty region is not connected.
func (st *state) connected() bool {
	if len(st.rows) == 0 {
		return false
	}
	st.nextGen()
	q := append(st.queue[:0], st.rows[0])
	st.cells[st.rows[0]].mark = st.gen
	for i := 0; i < len(q); i++ {
		for _, nb := range st.tb.g.Neighbors(q[i]) {
			if c := &st.cells[nb]; c.member == st.epoch && c.mark != st.gen {
				c.mark = st.gen
				q = append(q, nb)
			}
		}
	}
	st.queue = q
	return len(q) == len(st.rows)
}

// connectedWithout reports whether the region stays connected after
// removing id. A single-member region reduced to empty is not valid.
//
// It relies on the region being connected now — callers establish that
// once with connected() and every removal they make preserves it. Then
// every remaining member still reaches one of id's member neighbours, and
// those fall into two cliques, one per junction of id (segments meeting at
// a junction are all adjacent to each other). So the region stays
// connected iff one clique is empty — a leaf, or a segment the region only
// touches at one end: no walk at all — or the two cliques can still reach
// each other. That is decided by walking from both at once, a segment at a
// time: the walks meet (connected) or the smaller side runs dry
// (disconnected) after a walk no longer than that side, so even a cut
// segment costs its lighter half of the region, not the whole of it.
func (st *state) connectedWithout(id roadnet.SegmentID) bool {
	if !st.has(id) || len(st.rows) < 2 {
		return false
	}
	st.nextGen()
	sideA, sideB := st.gen-1, st.gen
	qa, qb := st.queue[:0], st.queueB[:0]
	ja := st.tb.ends[id][0]
	for _, nb := range st.tb.g.Neighbors(id) {
		if !st.has(nb) {
			continue
		}
		if e := st.tb.ends[nb]; e[0] == ja || e[1] == ja {
			st.cells[nb].mark = sideA
			qa = append(qa, nb)
		} else {
			st.cells[nb].mark = sideB
			qb = append(qb, nb)
		}
	}
	connected := len(qa)+len(qb) > 0 && (len(qa) == 0 || len(qb) == 0)
	for ia, ib := 0, 0; !connected && ia < len(qa) && ib < len(qb); ia, ib = ia+1, ib+1 {
		qa, connected = st.walkStep(qa, qa[ia], id, sideA, sideB)
		if !connected {
			qb, connected = st.walkStep(qb, qb[ib], id, sideB, sideA)
		}
	}
	st.queue, st.queueB = qa, qb
	return connected
}

// walkStep expands segment x of one side's walk around the removed
// segment: unvisited member neighbours join the side's queue, and meeting
// a segment the other side has reached reports the two sides connected.
func (st *state) walkStep(q []roadnet.SegmentID, x, removed roadnet.SegmentID, own, other uint32) ([]roadnet.SegmentID, bool) {
	for _, nb := range st.tb.g.Neighbors(x) {
		switch c := &st.cells[nb]; {
		case nb == removed || c.member != st.epoch || c.mark == own:
		case c.mark == other:
			return q, true
		default:
			c.mark = own
			q = append(q, nb)
		}
	}
	return q, false
}

// membersByID returns a fresh copy of the members sorted ascending by ID:
// the published form of a region.
func (st *state) membersByID() []roadnet.SegmentID {
	out := slices.Clone(st.rows)
	slices.Sort(out)
	return out
}
