package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func testGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	return g
}

func TestNewPlacesAllCars(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 200, Seed: seed(1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if sim.NumCars() != 200 {
		t.Fatalf("cars = %d, want 200", sim.NumCars())
	}
	var total int
	for i := 0; i < g.NumSegments(); i++ {
		total += sim.UsersOn(roadnet.SegmentID(i))
	}
	if total != 200 {
		t.Errorf("occupancy sums to %d, want 200", total)
	}
}

func TestOccupancyConservedUnderMovement(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 100, Routing: true, Seed: seed(2)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for step := 0; step < 20; step++ {
		if err := sim.Step(5); err != nil {
			t.Fatalf("Step: %v", err)
		}
		var total int
		for i := 0; i < g.NumSegments(); i++ {
			n := sim.UsersOn(roadnet.SegmentID(i))
			if n < 0 {
				t.Fatalf("negative occupancy on segment %d", i)
			}
			total += n
		}
		if total != 100 {
			t.Fatalf("after step %d occupancy sums to %d, want 100", step, total)
		}
	}
	if sim.Time() != 100 {
		t.Errorf("clock = %v, want 100", sim.Time())
	}
}

func TestDeterministicWorkload(t *testing.T) {
	g := testGraph(t)
	s1, err := New(g, Config{Cars: 50, Routing: true, Seed: seed(3)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s2, err := New(g, Config{Cars: 50, Routing: true, Seed: seed(3)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := s1.Step(3); err != nil {
			t.Fatal(err)
		}
		if err := s2.Step(3); err != nil {
			t.Fatal(err)
		}
	}
	c1, c2 := s1.Cars(), s2.Cars()
	for i := range c1 {
		if c1[i].Segment != c2[i].Segment || c1[i].Offset != c2[i].Offset {
			t.Fatalf("car %d diverged between identical seeds", i)
		}
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	g := testGraph(t)
	s1, err := New(g, Config{Cars: 50, Seed: seed(4)})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(g, Config{Cars: 50, Seed: seed(5)})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	c1, c2 := s1.Cars(), s2.Cars()
	for i := range c1 {
		if c1[i].Segment == c2[i].Segment {
			same++
		}
	}
	if same == len(c1) {
		t.Error("different seeds placed all cars identically")
	}
}

func TestCarPositionsOnSegments(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 50, Seed: seed(6)})
	if err != nil {
		t.Fatal(err)
	}
	for _, car := range sim.Cars() {
		seg, err := g.Segment(car.Segment)
		if err != nil {
			t.Fatalf("car %d on invalid segment: %v", car.ID, err)
		}
		if car.Offset < 0 || car.Offset > seg.Length {
			t.Errorf("car %d offset %v outside [0, %v]", car.ID, car.Offset, seg.Length)
		}
		pos := sim.Position(car)
		// Position must be within the segment's bounding box (with a margin
		// for floating point).
		bb := g.SegmentBounds(car.Segment)
		const eps = 1e-6
		if pos.X < bb.Min.X-eps || pos.X > bb.Max.X+eps || pos.Y < bb.Min.Y-eps || pos.Y > bb.Max.Y+eps {
			t.Errorf("car %d position %v outside its segment box %v", car.ID, pos, bb)
		}
	}
}

func TestRoutedCarsHaveValidRoutes(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 30, Routing: true, Seed: seed(7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, car := range sim.Cars() {
		for i := 1; i < len(car.route); i++ {
			if !g.Adjacent(car.route[i-1], car.route[i]) {
				t.Fatalf("car %d route not contiguous at hop %d", car.ID, i)
			}
		}
	}
}

func TestCarLookup(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 5, Seed: seed(8)})
	if err != nil {
		t.Fatal(err)
	}
	car, err := sim.Car(3)
	if err != nil || car.ID != 3 {
		t.Errorf("Car(3) = %+v, %v", car, err)
	}
	if _, err := sim.Car(99); err == nil {
		t.Error("Car(99) should fail")
	}
	if _, err := sim.Car(-1); err == nil {
		t.Error("Car(-1) should fail")
	}
}

func TestUsersOnInvalidSegment(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 5, Seed: seed(9)})
	if err != nil {
		t.Fatal(err)
	}
	if sim.UsersOn(-1) != 0 || sim.UsersOn(9999) != 0 {
		t.Error("invalid segments should report zero users")
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"negative-cars", Config{Cars: -1, Seed: seed(1)}},
		{"no-seed", Config{Cars: 10}},
		{"bad-speeds", Config{Cars: 10, MinSpeed: 20, MaxSpeed: 10, Seed: seed(1)}},
		{"negative-sigma", Config{Cars: 10, SigmaFraction: -0.5, Seed: seed(1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(g, tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestStepValidation(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 1, Seed: seed(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Step(0) err = %v", err)
	}
	if err := sim.Step(-1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Step(-1) err = %v", err)
	}
}

func TestZeroCars(t *testing.T) {
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 0, Seed: seed(11)})
	if err != nil {
		t.Fatalf("zero cars should be fine: %v", err)
	}
	if sim.NumCars() != 0 {
		t.Error("expected no cars")
	}
	if err := sim.Step(1); err != nil {
		t.Errorf("stepping empty sim: %v", err)
	}
}

func TestGaussianClustering(t *testing.T) {
	// With one hotspot and a tight sigma, occupancy should concentrate: the
	// busiest decile of segments should hold well over half the cars.
	g := testGraph(t)
	sim, err := New(g, Config{Cars: 500, Hotspots: 1, SigmaFraction: 0.05, Seed: seed(12)})
	if err != nil {
		t.Fatal(err)
	}
	counts := sim.Counts()
	// Sort descending by count (insertion sort is fine for 180 segments).
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	top := len(counts) / 10
	var topSum, total int
	for i, c := range counts {
		total += c
		if i < top {
			topSum += c
		}
	}
	if total != 500 {
		t.Fatalf("total = %d", total)
	}
	if float64(topSum) < 0.5*float64(total) {
		t.Errorf("top decile holds %d/%d cars; expected strong clustering", topSum, total)
	}
}

// occupancyDigest hashes UsersOn over every segment: the density k is
// computed against, so any change to it moves every published region.
func occupancyDigest(sim *Simulation) string {
	h := sha256.New()
	var b [4]byte
	for s := 0; s < sim.Graph().NumSegments(); s++ {
		binary.LittleEndian.PutUint32(b[:], uint32(sim.UsersOn(roadnet.SegmentID(s))))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestOccupancyDigest pins the placement serve computes k against, on its
// default seed: small and atlanta as served, and (non-short) a map four
// times atlanta with cars to match. Never regenerate the digests to make a
// change pass.
func TestOccupancyDigest(t *testing.T) {
	const serveSeed = "reversecloak-default-map-seed-01"
	atlanta4x := func(seed []byte) (*roadnet.Graph, error) {
		return mapgen.Generate(mapgen.Config{
			Junctions: 4 * 6979, Segments: 4 * 9187, Spacing: 150, Jitter: 0.3, Seed: seed,
		})
	}
	for _, c := range []struct {
		name  string
		build func([]byte) (*roadnet.Graph, error)
		cars  int
		long  bool
		want  string
	}{
		{"small", mapgen.Small, 2000, false, "19acbdf55bd5ac1a"},
		{"atlanta", mapgen.AtlantaNW, 10000, false, "e901c0611e3ede9b"},
		{"atlanta-4x", atlanta4x, 40000, true, "a5618087f785d505"},
	} {
		if c.long && testing.Short() {
			continue
		}
		g, err := c.build([]byte(serveSeed))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(g, Config{Cars: c.cars, Seed: []byte(serveSeed)})
		if err != nil {
			t.Fatal(err)
		}
		if got := occupancyDigest(sim); got != c.want {
			t.Errorf("%s, %d cars: occupancy digest %s, want %s", c.name, c.cars, got, c.want)
		}
	}
}
