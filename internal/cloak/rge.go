package cloak

import (
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// stepper abstracts the per-step transition logic that differs between RGE
// and RPLE. Both directions operate on the *pre-addition* state: forward
// selects the segment to add; backward, given the segment that was added
// from this state, yields every head (previously added segment) that could
// have produced that addition.
type stepper interface {
	// forward returns the segment selected at draw index t when the region
	// is st and the last added segment is head. It returns
	// roadnet.InvalidSegment with ok=false when expansion is stuck (no
	// eligible candidate).
	forward(st *state, head roadnet.SegmentID, t uint64) (roadnet.SegmentID, bool)
	// backward appends to heads the candidate heads for the transition that
	// added `added` at draw index t from state st, in ascending row order.
	// Nothing appended means the hypothesis "added was selected from st"
	// is inconsistent with the key.
	backward(st *state, added roadnet.SegmentID, t uint64, heads []roadnet.SegmentID) []roadnet.SegmentID
}

// draws is one (key, level, salt) pseudo-random stream with its draws
// memoised per index: the reversal search revisits the same few indices
// at every node, and expansion and its verification share the stream, so
// each R_t costs one HMAC per level attempt instead of one per node.
type draws struct {
	mac  *prng.Keyed
	vals []uint64
	have []bool
}

// rekey points the memo at a new stream.
func (d *draws) rekey(streamKey []byte) {
	d.mac = prng.NewKeyed(streamKey)
	d.vals, d.have = d.vals[:0], d.have[:0]
}

// pick returns the paper's pick value p_t = R_t mod n; n must be positive.
func (d *draws) pick(t uint64, n int) int {
	for uint64(len(d.vals)) <= t {
		d.vals, d.have = append(d.vals, 0), append(d.have, false)
	}
	if !d.have[t] {
		d.vals[t], d.have[t] = d.mac.Uint64(t), true
	}
	return int(d.vals[t] % uint64(n))
}

// rgeStepper implements Reversible Global Expansion. The transition table
// is "global" — its rows are the whole region and its columns the whole
// candidate set — but it is never materialised: the dense state keeps both
// in canonical order as it goes, so a transition is a rank lookup, one
// modular step and an index.
type rgeStepper struct {
	draws draws
}

var _ stepper = (*rgeStepper)(nil)

// forward implements the Fig. 2 forward transition: pick value
// p = R_t mod |CanA|; the head's row contains exactly one cell with value
// p, whose column is the next segment.
func (r *rgeStepper) forward(st *state, head roadnet.SegmentID, t uint64) (roadnet.SegmentID, bool) {
	can := st.candidates()
	if len(can) == 0 {
		return roadnet.InvalidSegment, false
	}
	i := st.tb.index(st.rows, head)
	if i < 0 {
		return roadnet.InvalidSegment, false
	}
	pick := r.draws.pick(t, len(can))
	j := forwardColumn(i+1, pick, len(can))
	return can[j-1], true
}

// backward implements the Fig. 2 backward transition: the removed segment's
// column determines the row(s) carrying the pick value; those rows are the
// possible previously-added segments. For the hypothesis to be consistent,
// `added` must be a member of the state's candidate set at all.
func (r *rgeStepper) backward(st *state, added roadnet.SegmentID, t uint64, heads []roadnet.SegmentID) []roadnet.SegmentID {
	can := st.candidates()
	j := st.tb.index(can, added)
	if j < 0 {
		return heads
	}
	pick := r.draws.pick(t, len(can))
	for i := backwardFirstRow(j+1, pick, len(can)); i <= len(st.rows); i += len(can) {
		heads = append(heads, st.rows[i-1])
	}
	return heads
}
