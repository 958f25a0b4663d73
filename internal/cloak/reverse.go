package cloak

import (
	"fmt"
	"slices"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// searchBudget bounds the de-anonymizer's DFS to keep worst-case reversal
// cost near-linear: when a region grows much larger than its candidate set
// the paper's backward lookup collides at every step and an unbounded
// search would blow up exponentially. Levels whose tagless reversal would
// exceed the budget are published with disambiguation tags instead (see
// Engine), so key holders never hit the budget. A collision-free reversal
// needs about |region| + steps expansions; the 32x slack absorbs benign
// local forks.
func searchBudget(regionSize, steps int) int {
	return 1024 + 32*(regionSize+steps)
}

// enumBudget bounds the adversarial ambiguity enumeration; truncation only
// understates the adversary's confusion.
const enumBudget = 20000

// checkSteps rejects step counts a region of that size cannot carry.
func checkSteps(steps, regionSize int) error {
	if steps < 0 || steps >= regionSize {
		return fmt.Errorf("%w: %d steps for a %d-segment region", ErrBadRegion, steps, regionSize)
	}
	return nil
}

// reverseLevel unwinds the `meta.Steps` segments of one privacy level from
// the arena's state (which must hold the level's region, connected, with
// the level key begun) and leaves the state at the region the level grew
// from. It returns the head at the start of the level — the last segment
// added by the level below, the hint that seeds the next peel;
// InvalidSegment for a zero-step or tagged level. On error the state is as
// it was on entry.
//
// It implements the paper's backward transitions plus a depth-first
// hypothesis search:
//
//   - The first removal of the level is unknown to the de-anonymizer; every
//     region segment is tried as the hypothesis "this was added last"
//     (restricted to `hint` when the level above already revealed it).
//   - Each removal's backward transition yields the candidate previous
//     head(s); because removal order is exactly reverse insertion order,
//     that head is the next segment to remove, chaining the walk backward.
//   - A hypothesis is kept only while every step verifies: the removed
//     segment must have been an eligible candidate of the pre-state and the
//     keyed pick must map head -> removed (checked inside the steppers).
//     Collisions (several consistent heads) fork the search; the anonymizer
//     publishes a level tagless only after verifyChain has shown that the
//     first complete chain in this search order, within budget, is the true
//     one.
//   - When the level carries disambiguation tags, each removal is resolved
//     directly by matching the step tag against the members of the current
//     region — no search at all.
//
// The search needs no density information: step counts come from public
// metadata, so data requesters can run it offline with just the map, the
// keys and the cloaked region.
func (a *arena) reverseLevel(stp stepper, meta LevelMeta, level int, hint roadnet.SegmentID) (roadnet.SegmentID, error) {
	st := a.st
	if err := checkSteps(meta.Steps, st.size()); err != nil {
		return roadnet.InvalidSegment, err
	}
	if meta.Steps == 0 {
		return roadnet.InvalidSegment, nil
	}
	st.sigma = meta.SigmaS
	if meta.Tags != nil {
		return roadnet.InvalidSegment, a.unwindTagged(stp, meta)
	}
	if hint != roadnet.InvalidSegment && !st.has(hint) {
		return roadnet.InvalidSegment, fmt.Errorf("%w: hint segment %d not in region", ErrBadRegion, hint)
	}
	rs := a.runSearch(stp, meta.Steps, hint, 1, searchBudget(st.size(), meta.Steps), nil)
	switch {
	case rs.found > 0:
		for _, s := range rs.chain {
			st.remove(s)
		}
		return rs.startHead, nil
	case rs.exhausted:
		return roadnet.InvalidSegment, fmt.Errorf("%w: reversal search budget exceeded for level %d (%d steps)",
			ErrIrreversible, level, meta.Steps)
	}
	return roadnet.InvalidSegment, fmt.Errorf("%w: no consistent removal chain for level %d (%d steps)",
		ErrIrreversible, level, meta.Steps)
}

// unwindTagged resolves each removal directly: the segment whose keyed tag
// matches the published step tag is the one added at that step. Each
// removal is additionally validated against the backward transition, so a
// wrong key (whose tags match nothing) fails loudly. On success the state
// is unwound and a.search.chain lists the removals, last-added first; on
// error they are put back.
//
// The start head stays unknown in tag mode: the backward row lookup can be
// ambiguous for large regions, and the next level de-anonymizes correctly
// without a hint.
func (a *arena) unwindTagged(stp stepper, meta LevelMeta) error {
	rs := &a.search
	rs.chain = rs.chain[:0]
	err := a.walkTags(stp, meta)
	if err != nil {
		for i := len(rs.chain) - 1; i >= 0; i-- {
			a.st.add(rs.chain[i])
		}
	}
	return err
}

// walkTags is unwindTagged's walk; it stops at the first step that fails,
// with the removals so far logged in a.search.chain.
func (a *arena) walkTags(stp stepper, meta LevelMeta) error {
	st, rs := a.st, &a.search
	// Members are tried in ascending ID order, the order a region is
	// published in.
	a.byID = append(a.byID[:0], st.rows...)
	slices.Sort(a.byID)
	for t := meta.Steps; t >= 1; t-- {
		at := -1
		for i, s := range a.byID {
			if a.key.matches(t, s, meta.Tags[t-1]) {
				at = i
				break
			}
		}
		if at < 0 {
			return fmt.Errorf("%w: step %d tag matches no region segment (wrong key?)", ErrIrreversible, t)
		}
		found := a.byID[at]
		if !st.connectedWithout(found) {
			return fmt.Errorf("%w: step %d removal disconnects the region", ErrIrreversible, t)
		}
		st.remove(found)
		a.byID = slices.Delete(a.byID, at, at+1)
		rs.chain = append(rs.chain, found)
		if rs.heads = stp.backward(st, found, uint64(t-1), rs.heads[:0]); len(rs.heads) == 0 {
			return fmt.Errorf("%w: step %d fails the backward transition", ErrIrreversible, t)
		}
	}
	return nil
}

// EnumerateReversals returns up to limit complete removal chains that are
// consistent with the given key. With the true key exactly one chain — the
// real one — survives the engine's collision avoidance; with a wrong or
// guessed key the count measures the adversary's remaining ambiguity
// (experiment E11). Each returned chain lists removals last-added first.
//
// This is the analysis path, not the request path: it takes a bare graph,
// so every call builds its own rank and bounds tables and its own scratch.
func EnumerateReversals(
	g *roadnet.Graph,
	algo Algorithm,
	pre *Preassignment,
	region []roadnet.SegmentID,
	steps int,
	key []byte,
	level int,
	salt uint32,
	sigma float64,
	limit int,
) ([][]roadnet.SegmentID, error) {
	if err := checkSteps(steps, len(region)); err != nil {
		return nil, err
	}
	if limit < 1 {
		return nil, fmt.Errorf("%w: non-positive limit", ErrBadRequest)
	}
	if steps == 0 {
		return [][]roadnet.SegmentID{{}}, nil
	}
	switch {
	case algo == RPLE && pre == nil:
		return nil, fmt.Errorf("%w: RPLE reversal requires a preassignment", ErrBadRequest)
	case algo != RGE && algo != RPLE:
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrBadRegion, int(algo))
	}
	a := newArena(newTables(g))
	a.key.begin(key, level)
	stp := a.stepper(algo, pre, salt)
	st := a.st
	st.reset(nil)
	st.sigma = sigma
	out := [][]roadnet.SegmentID{}
	// A region that is not connected (or names segments the graph lacks)
	// has no removal chain: no hypothesis leaves it connected and adjacent
	// to what it removed.
	for _, id := range region {
		if !g.HasSegment(id) {
			return out, nil
		}
		st.add(id)
	}
	if !st.connected() {
		return out, nil
	}
	// Ambiguity analysis keeps a bounded search: exceeding the budget
	// just truncates the enumeration (the ambiguity is the finding).
	a.runSearch(stp, steps, roadnet.InvalidSegment, limit, enumBudget, &out)
	return out, nil
}

// reverseSearch carries the DFS state for one level reversal. It stops at
// max complete chains; the de-anonymizer uses max=1 (first hit in the
// deterministic order is the verified truth), the ambiguity analysis uses
// larger ones. The node budget caps total expansions; exceeding it stops
// the search with whatever was found. Its slices are stacks reused from
// search to search: a node allocates nothing.
type reverseSearch struct {
	st  *state
	stp stepper
	// removed is the removal log of the branch being explored; heads holds
	// one frame of backward() results per depth (offs: where each of
	// verifyChain's frames starts).
	removed []roadnet.SegmentID
	heads   []roadnet.SegmentID
	offs    []int
	// chain and startHead are the first complete chain (removals,
	// last-added first) and the level's start head it implies; every
	// chain is also appended to *all when that is set.
	chain     []roadnet.SegmentID
	startHead roadnet.SegmentID
	all       *[][]roadnet.SegmentID

	found, max    int
	nodes, budget int
	exhausted     bool
}

// runSearch searches the arena's state for removal chains of the given
// length: from the hint when the level above revealed it, otherwise from
// every member in canonical order (the deterministic order both sides
// share). The state is unchanged when it returns.
func (a *arena) runSearch(stp stepper, steps int, hint roadnet.SegmentID,
	max, budget int, all *[][]roadnet.SegmentID) *reverseSearch {
	rs := &a.search
	*rs = reverseSearch{st: a.st, stp: stp, max: max, budget: budget, all: all,
		removed: rs.removed[:0], heads: rs.heads[:0], offs: rs.offs[:0], chain: rs.chain[:0]}
	if hint != roadnet.InvalidSegment {
		rs.undo(steps, hint)
	} else {
		// undo restores the state, so the rows are the same slice contents
		// at every iteration.
		for i := 0; i < len(rs.st.rows); i++ {
			if rs.undo(steps, rs.st.rows[i]) {
				break
			}
		}
	}
	a.stats.Searches++
	a.stats.SearchNodes += uint64(rs.nodes)
	switch {
	case rs.found > 0:
	case rs.exhausted:
		a.stats.SearchesExhausted++
	default:
		a.stats.SearchesEmpty++
	}
	return rs
}

// verifyChain is the anonymizer's side of collision avoidance: it reports
// whether the reader's search (runSearch: no hint, first chain wins, this
// node budget) would return exactly the level logged in a.seq with start
// head `head` — by walking the chain it knows, not by searching for it.
// The depth-first search returns the true chain iff
//
//	(a) down the true chain every removal passes undo's checks and lists
//	    the true previous head, and at t = 1 the first head listed is `head`;
//	(b) no subtree the search enters before the true branch — heads listed
//	    before the true one at each depth, members ranked before seq's last
//	    at the top — holds a complete chain;
//	(c) the chain's own nodes plus all of those subtrees' fit the budget.
//
// (b) and (c) do not depend on the order the subtrees are visited in: one
// pass down the chain keeps each depth's earlier heads on the heads stack,
// one pass back up explores them with undo, fewest remaining steps first,
// top-level hypotheses last. A level the reader would get wrong then shows
// a wrong chain within a few nodes; one that verifies costs the nodes the
// reader will spend. The state is unchanged on return.
func (a *arena) verifyChain(stp stepper, head roadnet.SegmentID, budget int) bool {
	st, seq, rs := a.st, a.seq, &a.search
	*rs = reverseSearch{st: st, stp: stp, max: 1, budget: budget, removed: rs.removed[:0],
		heads: rs.heads[:0], offs: rs.offs[:0], chain: rs.chain[:0]}
	ok, t := true, len(seq) // seq[t:] is removed
	for ok && t > 0 {
		added := seq[t-1]
		if rs.nodes++; rs.nodes > budget {
			rs.exhausted, ok = true, false
		} else if ok = st.connectedWithout(added); ok {
			st.remove(added)
			t--
			base := len(rs.heads)
			rs.offs = append(rs.offs, base)
			rs.heads = stp.backward(st, added, uint64(t), rs.heads)
			// Keep the heads the reader tries before the true one; at the
			// bottom it takes the first, which must be the start head.
			prev := head
			if t > 0 {
				prev = seq[t-1]
			}
			k := slices.Index(rs.heads[base:], prev)
			ok = k == 0 || (k > 0 && t > 0)
			rs.heads = rs.heads[:base+max(k, 0)]
		}
	}
	for ; t < len(seq); t++ {
		if ok { // the top frame is step t+1's: hypotheses for step t
			base := rs.offs[len(rs.offs)-1]
			for k := base; ok && k < len(rs.heads); k++ {
				ok = !rs.undo(t, rs.heads[k])
			}
			rs.heads, rs.offs = rs.heads[:base], rs.offs[:len(rs.offs)-1]
		}
		st.add(seq[t])
	}
	for i := 0; ok && st.rows[i] != seq[len(seq)-1]; i++ {
		ok = !rs.undo(len(seq), st.rows[i])
	}
	a.stats.Searches++
	a.stats.SearchNodes += uint64(rs.nodes)
	switch {
	case ok:
	case rs.exhausted:
		a.stats.SearchesExhausted++
	default:
		a.stats.SearchesAmbiguous++
	}
	return ok
}

// undo attempts to remove `added` as the segment of forward step t
// (1-based) and recursively unwind the remaining steps. The state must be
// R_{t+1} on entry; it returns true when the search should stop (enough
// chains or node budget exhausted). The state is always restored before
// returning.
func (rs *reverseSearch) undo(t int, added roadnet.SegmentID) bool {
	rs.nodes++
	if rs.nodes > rs.budget {
		rs.exhausted = true
		return true
	}
	st := rs.st
	if !st.has(added) || !st.connectedWithout(added) {
		return false
	}
	st.remove(added)
	rs.removed = append(rs.removed, added)

	// Backward transition: which heads could have produced this addition?
	base := len(rs.heads)
	rs.heads = rs.stp.backward(st, added, uint64(t-1), rs.heads)

	full := false
	if t == 1 {
		// Fully unwound: the surviving head is the level's start head.
		if len(rs.heads) > base {
			if rs.found++; rs.found == 1 {
				rs.chain = append(rs.chain[:0], rs.removed...)
				rs.startHead = rs.heads[base]
			}
			if rs.all != nil {
				*rs.all = append(*rs.all, slices.Clone(rs.removed))
			}
			full = rs.found >= rs.max
		}
	} else {
		// The previous head is the next segment to remove (removal order is
		// reverse insertion order). Fork on collisions. Deeper frames sit
		// above this one on the stack and are popped when they return.
		for k := base; k < len(rs.heads); k++ {
			if rs.undo(t-1, rs.heads[k]) {
				full = true
				break
			}
		}
	}
	rs.heads = rs.heads[:base]
	st.add(added)
	rs.removed = rs.removed[:len(rs.removed)-1]
	return full
}
