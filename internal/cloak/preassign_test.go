package cloak

import (
	"errors"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func gridGraph(t *testing.T, cols, rows int) *roadnet.Graph {
	t.Helper()
	g, err := mapgen.Grid(cols, rows, 100)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	return g
}

func TestPreassignmentPairingInvariant(t *testing.T) {
	// Algorithm 1's collision-freedom: FT[s][j] = sp  <=>  BT[sp][j] = s.
	g := gridGraph(t, 6, 6)
	pre, err := NewPreassignment(g, 8)
	if err != nil {
		t.Fatalf("NewPreassignment: %v", err)
	}
	for s := 0; s < g.NumSegments(); s++ {
		ft := pre.Forward(roadnet.SegmentID(s))
		for j, sp := range ft {
			if sp == roadnet.InvalidSegment {
				continue
			}
			bt := pre.Backward(sp)
			if bt[j] != roadnet.SegmentID(s) {
				t.Fatalf("FT[%d][%d]=%d but BT[%d][%d]=%d", s, j, sp, sp, j, bt[j])
			}
		}
	}
	// And the reverse direction.
	for sp := 0; sp < g.NumSegments(); sp++ {
		bt := pre.Backward(roadnet.SegmentID(sp))
		for j, s := range bt {
			if s == roadnet.InvalidSegment {
				continue
			}
			ft := pre.Forward(s)
			if ft[j] != roadnet.SegmentID(sp) {
				t.Fatalf("BT[%d][%d]=%d but FT[%d][%d]=%d", sp, j, s, s, j, ft[j])
			}
		}
	}
}

func TestPreassignmentEntriesDistinct(t *testing.T) {
	g := gridGraph(t, 6, 6)
	pre, err := NewPreassignment(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.NumSegments(); s++ {
		seen := make(map[roadnet.SegmentID]bool)
		for _, sp := range pre.Forward(roadnet.SegmentID(s)) {
			if sp == roadnet.InvalidSegment {
				continue
			}
			if sp == roadnet.SegmentID(s) {
				t.Fatalf("FT[%d] contains itself", s)
			}
			if seen[sp] {
				t.Fatalf("FT[%d] contains %d twice", s, sp)
			}
			seen[sp] = true
		}
	}
}

func TestPreassignmentDeterministic(t *testing.T) {
	g := gridGraph(t, 5, 5)
	p1, err := NewPreassignment(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPreassignment(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.NumSegments(); s++ {
		f1 := p1.Forward(roadnet.SegmentID(s))
		f2 := p2.Forward(roadnet.SegmentID(s))
		for j := range f1 {
			if f1[j] != f2[j] {
				t.Fatalf("FT[%d][%d] differs between runs", s, j)
			}
		}
	}
}

func TestPreassignmentFillsNearbySlots(t *testing.T) {
	// On a grid every segment has 4-6 adjacent segments; with T=8 most
	// lists should hold several nearby entries.
	g := gridGraph(t, 6, 6)
	pre, err := NewPreassignment(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	var filled, total int
	for s := 0; s < g.NumSegments(); s++ {
		for _, sp := range pre.Forward(roadnet.SegmentID(s)) {
			total++
			if sp != roadnet.InvalidSegment {
				filled++
			}
		}
	}
	if float64(filled) < 0.5*float64(total) {
		t.Errorf("only %d/%d slots filled; expected at least half", filled, total)
	}
}

func TestPreassignmentErrors(t *testing.T) {
	g := gridGraph(t, 3, 3)
	if _, err := NewPreassignment(g, 0); !errors.Is(err, ErrBadPreassign) {
		t.Errorf("T=0 err = %v", err)
	}
	empty := roadnet.NewBuilder(0, 0).Build()
	if _, err := NewPreassignment(empty, 4); !errors.Is(err, ErrBadPreassign) {
		t.Errorf("empty graph err = %v", err)
	}
}

func TestPreassignmentMemoryBytes(t *testing.T) {
	g := gridGraph(t, 4, 4)
	p8, err := NewPreassignment(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := NewPreassignment(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p8.MemoryBytes() <= 0 {
		t.Error("memory must be positive")
	}
	if p16.MemoryBytes() <= p8.MemoryBytes() {
		t.Error("larger T must cost more memory")
	}
}

func TestPreassignmentAccessorBounds(t *testing.T) {
	g := gridGraph(t, 3, 3)
	pre, err := NewPreassignment(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Forward(-1) != nil || pre.Forward(9999) != nil {
		t.Error("out-of-range Forward should return nil")
	}
	if pre.Backward(-1) != nil || pre.Backward(9999) != nil {
		t.Error("out-of-range Backward should return nil")
	}
	if pre.T() != 4 {
		t.Errorf("T = %d", pre.T())
	}
	if pre.NumSegments() != g.NumSegments() {
		t.Errorf("NumSegments = %d", pre.NumSegments())
	}
}

// TestFigure3 reproduces the RPLE walkthrough: once the forward sequence
// reaches a head segment, the keyed pick R_i mod T indexes its forward
// list to select the next segment; with the same key, the backward
// sequence at that segment selects the head from its backward list at the
// identical slot.
func TestFigure3(t *testing.T) {
	g := gridGraph(t, 5, 5)
	const listLen = 6 // Fig. 3 uses forward lists of length 6
	pre, err := NewPreassignment(g, listLen)
	if err != nil {
		t.Fatal(err)
	}

	// Use segment 8 as the head, matching the figure's s8.
	head := roadnet.SegmentID(8)
	// Region = {head}; the stepper picks from FT[head].
	st := newArena(newTables(g)).st
	st.reset(nil)
	st.add(head)
	stp := &rpleStepper{pre: pre}
	stp.draws.rekey(prng.Derive(seed(42), string(appendStreamLabel(nil, 1, 0))))
	next, ok := stp.forward(st, head, 0)
	if !ok {
		t.Fatal("forward from s8 found no eligible candidate")
	}

	// The selected segment must come from FT[head].
	found := false
	for _, sp := range pre.Forward(head) {
		if sp == next {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("selected segment %d is not in FT[s8]", next)
	}

	// Backward: with the same key and the same pre-state, the removed
	// segment maps back to the head — and only to the head.
	heads := stp.backward(st, next, 0, nil)
	if len(heads) != 1 || heads[0] != head {
		t.Fatalf("backward(%d) = %v, want [s8 (%d)]", next, heads, head)
	}
}
