package cloak

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/reversecloak/reversecloak/internal/geom"
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

// fullScanOrder is the proximity-ordered neighbour list NL built over the
// whole graph: every segment reachable from origin, nearest hops first,
// ties by ID. It is the unbounded form of NewPreassignment's walk: the
// oracle of TestPreassignmentMatchesFullScan.
func fullScanOrder(g *roadnet.Graph, origin roadnet.SegmentID) []roadnet.SegmentID {
	seen := make([]bool, g.NumSegments())
	seen[origin] = true
	var order []roadnet.SegmentID
	frontier := []roadnet.SegmentID{origin}
	for len(frontier) > 0 {
		var next []roadnet.SegmentID
		for _, s := range frontier {
			for _, nb := range g.Neighbors(s) {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		order = append(order, next...)
		frontier = next
	}
	return order
}

// scanStops counts how the oracle's pass-2 scans ended.
type scanStops struct{ full, midLevel, exhausted int }

// fullScanPreassignment is NewPreassignment over fullScanOrder, argument
// checks aside, plus a count of how each pass-2 scan stopped.
func fullScanPreassignment(g *roadnet.Graph, t int) (*Preassignment, scanStops) {
	e := g.NumSegments()
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

	// Pass 2: proximity order, as in Algorithm 1.
	var stops scanStops
	maxScan := maxScanFactor * t
	for s := 0; s < e; s++ {
		filled := countFilled(p.ft[s])
		scanned := 0
		order := fullScanOrder(g, roadnet.SegmentID(s))
		for _, sp := range order {
			if filled >= t || scanned >= maxScan {
				break
			}
			scanned++
			if place(roadnet.SegmentID(s), sp) {
				filled++
			}
		}
		switch {
		case filled >= t:
			stops.full++
		case scanned < len(order) && hops(g, s, order[scanned]) == hops(g, s, order[scanned-1]):
			stops.midLevel++
		case scanned == len(order):
			stops.exhausted++
		}
	}
	return p, stops
}

func hops(g *roadnet.Graph, from int, to roadnet.SegmentID) int {
	d, err := g.HopDistance(roadnet.SegmentID(from), to)
	if err != nil {
		panic(err)
	}
	return d
}

// twoComponents is a 3x3 grid beside a path of four segments, no road
// between them: every scan runs out of its component before its cap.
func twoComponents(t *testing.T) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(14, 16)
	road := func(a, c roadnet.JunctionID) {
		if _, err := b.AddSegment(a, c); err != nil {
			t.Fatal(err)
		}
	}
	var grid [3][3]roadnet.JunctionID
	for y := range grid {
		for x := range grid[y] {
			grid[y][x] = b.AddJunction(geom.Point{X: 100 * float64(x), Y: 100 * float64(y)})
			if x > 0 {
				road(grid[y][x-1], grid[y][x])
			}
			if y > 0 {
				road(grid[y-1][x], grid[y][x])
			}
		}
	}
	prev := b.AddJunction(geom.Point{X: 1000})
	for i := 1; i <= 4; i++ {
		next := b.AddJunction(geom.Point{X: 1000 + 100*float64(i)})
		road(prev, next)
		prev = next
	}
	return b.Build()
}

// TestPreassignmentMatchesFullScan checks the bounded, level-by-level walk
// against the full-graph one it replaced, row by row, over maps and list
// lengths that end scans in all three ways: the list fills, the scan cap
// cuts a hop level part-way, or the component runs out first.
func TestPreassignmentMatchesFullScan(t *testing.T) {
	fig, _, err := mapgen.FigureOne()
	if err != nil {
		t.Fatal(err)
	}
	small, err := mapgen.Small([]byte(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*roadnet.Graph{"figure1": fig, "small": small, "two-components": twoComponents(t)}
	for n := 3; n <= 8; n++ {
		graphs[fmt.Sprintf("grid%dx%d", n, n)] = gridGraph(t, n, n)
	}

	// The oracle's NL itself: each reachable segment once, in hop order.
	order := fullScanOrder(fig, 0)
	if len(order) != fig.NumSegments()-1 {
		t.Fatalf("figure1 NL(0) covers %d segments, want %d", len(order), fig.NumSegments()-1)
	}
	for i := 1; i < len(order); i++ {
		if hops(fig, 0, order[i]) < hops(fig, 0, order[i-1]) {
			t.Fatalf("figure1 NL(0) not monotone in hop distance at %d", order[i])
		}
	}

	var all scanStops
	for name, g := range graphs {
		for _, listLen := range []int{1, 2, 4, 6, 8, 16, 64} {
			got, err := NewPreassignment(g, listLen)
			if err != nil {
				t.Fatal(err)
			}
			want, stops := fullScanPreassignment(g, listLen)
			all.full += stops.full
			all.midLevel += stops.midLevel
			all.exhausted += stops.exhausted
			if name == "small" && listLen == 64 && stops.exhausted == 0 {
				t.Errorf("small T=64: no scan ran out of its component")
			}
			for s := range want.ft {
				if !slices.Equal(got.ft[s], want.ft[s]) || !slices.Equal(got.bt[s], want.bt[s]) {
					t.Fatalf("%s T=%d segment %d: FT %v BT %v, full scan FT %v BT %v",
						name, listLen, s, got.ft[s], got.bt[s], want.ft[s], want.bt[s])
				}
			}
		}
	}
	if all.full == 0 || all.midLevel == 0 || all.exhausted == 0 {
		t.Errorf("scan stops not all covered: %+v", all)
	}
}

// tableDigest is SHA-256 over FT[s] then BT[s] for every segment in ID
// order, each entry a little-endian uint32 (InvalidSegment is ffffffff);
// the first 8 bytes in hex.
func tableDigest(p *Preassignment) string {
	h := sha256.New()
	var b [4]byte
	for s := range p.ft {
		for _, row := range [][]roadnet.SegmentID{p.ft[s], p.bt[s]} {
			for _, v := range row {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestPreassignmentDigest pins the tables of the maps the service builds by
// default. Both sides of the protocol derive them independently, so they
// must never move; never regenerate the digests to make a change pass.
func TestPreassignmentDigest(t *testing.T) {
	for _, c := range []struct {
		preset string
		t      int
		want   string
	}{
		{"small", 16, "4793ab6f610b58e4"},
		{"atlanta", 16, "b6f54009e1ca0d9b"},
		{"atlanta", 6, "6318f04f3151b9bc"},
	} {
		if c.preset == "atlanta" && testing.Short() {
			continue
		}
		g, err := mapgen.Preset(c.preset, []byte(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPreassignment(g, c.t)
		if err != nil {
			t.Fatal(err)
		}
		if got := tableDigest(p); got != c.want {
			t.Errorf("%s T=%d: tables digest %s, want %s", c.preset, c.t, got, c.want)
		}
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
