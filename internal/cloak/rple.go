package cloak

import (
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// rpleStepper implements Reversible Pre-assignment-based Local Expansion.
// Transitions come from the head segment's pre-assigned forward list: the
// pick value indexes the list (Fig. 3: "the index of s14 is calculated by
// R_i mod 6, where 6 is the length of the forward list"), probing forward
// deterministically past empty or ineligible slots. The backward direction
// uses the paired backward list with the identical probing rule, so both
// sides resolve the same slot.
//
// Eligibility additionally requires the candidate to be adjacent to the
// current region, which keeps cloaking regions connected (a design
// decision; see docs/ARCHITECTURE.md, "Inside the cloak engine").
type rpleStepper struct {
	pre   *Preassignment
	draws draws
}

var _ stepper = (*rpleStepper)(nil)

// forward picks the next segment from FT[head]: slot (p+q) mod T for the
// smallest probe q >= 0 whose entry is eligible.
func (r *rpleStepper) forward(st *state, head roadnet.SegmentID, t uint64) (roadnet.SegmentID, bool) {
	tLen := r.pre.T()
	p := r.draws.pick(t, tLen)
	for q := 0; q < tLen; q++ {
		idx := (p + q) % tLen
		c := r.pre.forwardAt(head, idx)
		if c == roadnet.InvalidSegment {
			continue
		}
		if st.eligible(c) {
			return c, true
		}
	}
	return roadnet.InvalidSegment, false
}

// backward yields every head h consistent with "added was selected from
// state st at draw t": BT[added] must map some probed slot to h, h must be
// a region member, and — mirroring forward probing — no earlier probe slot
// of FT[h] may hold an eligible entry (otherwise forward would have stopped
// there instead).
func (r *rpleStepper) backward(st *state, added roadnet.SegmentID, t uint64, heads []roadnet.SegmentID) []roadnet.SegmentID {
	if !st.eligible(added) {
		return heads
	}
	tLen := r.pre.T()
	p := r.draws.pick(t, tLen)
	for q := 0; q < tLen; q++ {
		idx := (p + q) % tLen
		h := r.pre.backwardAt(added, idx)
		if h == roadnet.InvalidSegment || !st.has(h) {
			continue
		}
		// The pairing invariant gives FT[h][idx] == added; verify that the
		// forward probe from h stops exactly at idx.
		stops := true
		for q2 := 0; q2 < q; q2++ {
			idx2 := (p + q2) % tLen
			c := r.pre.forwardAt(h, idx2)
			if c == roadnet.InvalidSegment {
				continue
			}
			if st.eligible(c) {
				stops = false
				break
			}
		}
		if stops {
			heads = append(heads, h)
		}
	}
	return heads
}
