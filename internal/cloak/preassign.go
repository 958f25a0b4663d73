package cloak

import (
	"errors"
	"fmt"
	"slices"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Errors returned by NewPreassignment.
var (
	// ErrBadPreassign reports an invalid pre-assignment configuration.
	ErrBadPreassign = errors.New("cloak: bad preassignment")
)

// DefaultTransitionListLength is the default length T of the per-segment
// forward/backward transition lists (Fig. 3 shows lists of length 6; a
// larger default reduces the chance of a stuck local walk on dense
// regions).
const DefaultTransitionListLength = 16

// Preassignment holds RPLE's per-segment forward and backward transition
// lists, computed once per graph by Algorithm 1 of the paper. For every
// placement the invariant FT[s][j] = sp  <=>  BT[sp][j] = s holds: slot j is
// the first index empty in both lists when the pair is processed, which is
// what makes the backward lookup collision-free.
//
// A Preassignment is immutable after construction and safe for concurrent
// readers. Anonymizer and de-anonymizer must build it with the same graph
// and T to derive identical tables (construction is deterministic).
type Preassignment struct {
	t  int
	ft [][]roadnet.SegmentID
	bt [][]roadnet.SegmentID
}

// maxScanFactor bounds how many proximity-ordered candidates are scanned
// per segment. Algorithm 1 scans all E segments; almost all placements
// happen within the first few dozen candidates, so the scan is capped at
// maxScanFactor*T candidates to keep construction near-linear. The scan
// reads a prefix of NL, and NL is built only that far: the breadth-first
// walk expands one whole hop level at a time and stops once the list is
// full or the cap is reached. The cap is part of the deterministic
// construction, so both sides agree.
const maxScanFactor = 16

// NewPreassignment runs Algorithm 1: for every segment s, walk the
// proximity-ordered neighbour list NL and place each candidate sp at the
// first slot empty in both FT[s] and BT[sp].
//
// Placement runs in two passes. The first pass places every segment's
// *graph-adjacent* neighbours (the head of Algorithm 1's proximity order);
// the second pass fills the remaining slots with farther candidates. A
// single global pass in segment-ID order lets early segments saturate the
// backward lists of popular neighbours, starving late segments of the
// adjacent entries the local walk needs to move at all; the two-pass order
// guarantees every adjacency that fits (degree < T) gets a paired slot.
// Both sides derive the identical tables because the construction stays
// deterministic.
func NewPreassignment(g *roadnet.Graph, t int) (*Preassignment, error) {
	if t < 1 {
		return nil, fmt.Errorf("%w: transition list length %d", ErrBadPreassign, t)
	}
	e := g.NumSegments()
	if e == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadPreassign)
	}
	p := &Preassignment{
		t:  t,
		ft: make([][]roadnet.SegmentID, e),
		bt: make([][]roadnet.SegmentID, e),
	}
	for i := 0; i < e; i++ {
		p.ft[i] = newEmptyRow(t)
		p.bt[i] = newEmptyRow(t)
	}

	place := func(s roadnet.SegmentID, sp roadnet.SegmentID) bool {
		if contains(p.ft[s], sp) {
			return false
		}
		j := firstCommonEmpty(p.ft[s], p.bt[sp])
		if j < 0 {
			return false
		}
		p.ft[s][j] = sp
		p.bt[sp][j] = s
		return true
	}

	// Pass 1: direct adjacencies.
	for s := 0; s < e; s++ {
		for _, sp := range g.Neighbors(roadnet.SegmentID(s)) {
			if countFilled(p.ft[s]) >= t {
				break
			}
			place(roadnet.SegmentID(s), sp)
		}
	}

	// Pass 2: proximity order NL, as in Algorithm 1: segments by hop
	// distance from s (s excluded), ties by ID. seen[x] == epoch marks x as
	// reached from the current s, so one slice serves every segment.
	maxScan := maxScanFactor * t
	seen := make([]int32, e)
	var level, next []roadnet.SegmentID
	for s := 0; s < e; s++ {
		epoch := int32(s + 1)
		seen[s] = epoch
		filled := countFilled(p.ft[s])
		scanned := 0
		level = append(level[:0], roadnet.SegmentID(s))
		for len(level) > 0 && filled < t && scanned < maxScan {
			next = next[:0]
			for _, u := range level {
				for _, nb := range g.Neighbors(u) {
					if seen[nb] != epoch {
						seen[nb] = epoch
						next = append(next, nb)
					}
				}
			}
			slices.Sort(next)
			for _, sp := range next {
				if filled >= t || scanned >= maxScan {
					break
				}
				scanned++
				if place(roadnet.SegmentID(s), sp) {
					filled++
				}
			}
			level, next = next, level
		}
	}
	return p, nil
}

// contains reports whether row holds sp.
func contains(row []roadnet.SegmentID, sp roadnet.SegmentID) bool {
	for _, v := range row {
		if v == sp {
			return true
		}
	}
	return false
}

// T returns the transition list length.
func (p *Preassignment) T() int { return p.t }

// NumSegments returns the number of segments the tables cover.
func (p *Preassignment) NumSegments() int { return len(p.ft) }

// Forward returns a copy of FT[s].
func (p *Preassignment) Forward(s roadnet.SegmentID) []roadnet.SegmentID {
	if int(s) < 0 || int(s) >= len(p.ft) {
		return nil
	}
	return append([]roadnet.SegmentID(nil), p.ft[s]...)
}

// Backward returns a copy of BT[s].
func (p *Preassignment) Backward(s roadnet.SegmentID) []roadnet.SegmentID {
	if int(s) < 0 || int(s) >= len(p.bt) {
		return nil
	}
	return append([]roadnet.SegmentID(nil), p.bt[s]...)
}

// forwardAt returns FT[s][j] without copying (hot path).
func (p *Preassignment) forwardAt(s roadnet.SegmentID, j int) roadnet.SegmentID {
	return p.ft[s][j]
}

// backwardAt returns BT[s][j] without copying (hot path).
func (p *Preassignment) backwardAt(s roadnet.SegmentID, j int) roadnet.SegmentID {
	return p.bt[s][j]
}

// MemoryBytes estimates the resident size of the transition tables: the
// storage cost RPLE pays for its faster cloaking (experiment E5).
func (p *Preassignment) MemoryBytes() int {
	const idSize = 4    // roadnet.SegmentID is int32
	const sliceHdr = 24 // slice header per row
	rows := len(p.ft) + len(p.bt)
	return rows*(sliceHdr+p.t*idSize) + 2*sliceHdr
}

// newEmptyRow returns a row of t empty (InvalidSegment) slots.
func newEmptyRow(t int) []roadnet.SegmentID {
	row := make([]roadnet.SegmentID, t)
	for i := range row {
		row[i] = roadnet.InvalidSegment
	}
	return row
}

// countFilled returns the number of occupied slots.
func countFilled(row []roadnet.SegmentID) int {
	n := 0
	for _, v := range row {
		if v != roadnet.InvalidSegment {
			n++
		}
	}
	return n
}

// firstCommonEmpty returns the smallest index empty in both rows, or -1.
// It is Algorithm 1's emp = empFT ∩ empBT, selPosition = emp[0].
func firstCommonEmpty(a, b []roadnet.SegmentID) int {
	for j := range a {
		if a[j] == roadnet.InvalidSegment && b[j] == roadnet.InvalidSegment {
			return j
		}
	}
	return -1
}
