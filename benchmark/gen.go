package main

import (
	"math/rand"
	"sort"
	"time"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Independent random streams of one run. Each consumer draws from its own
// stream, so changing how many values one of them takes never shifts the
// inputs of another.
const (
	streamUsers = iota + 1
	streamTargets
	streamMix
	streamArrivals
	streamWarmup
	streamYardstick
)

// newRand returns the generator of one stream of one seed. math/rand's
// seeded source is frozen by the Go 1 compatibility promise, so a seed
// names the same inputs on every toolchain.
func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// densitySampler draws segments with probability proportional to the
// number of cars on them: a requester is one of the cars, not a uniformly
// chosen road (most roads are empty, and cloaking from an empty road
// costs three times as much as from where people are).
type densitySampler struct {
	cum []int // cum[i] = cars on segments 0..i
}

func newDensitySampler(counts []int) *densitySampler {
	cum := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		total += c
		cum[i] = total
	}
	return &densitySampler{cum: cum}
}

func (d *densitySampler) total() int {
	if len(d.cum) == 0 {
		return 0
	}
	return d.cum[len(d.cum)-1]
}

// draw returns the segment of a uniformly chosen car.
func (d *densitySampler) draw(r *rand.Rand) roadnet.SegmentID {
	car := r.Intn(d.total())
	return roadnet.SegmentID(sort.SearchInts(d.cum, car+1))
}

func (d *densitySampler) drawN(r *rand.Rand, n int) []roadnet.SegmentID {
	out := make([]roadnet.SegmentID, n)
	for i := range out {
		out[i] = d.draw(r)
	}
	return out
}

// poissonSchedule returns n send times (offsets from the phase start) of
// a Poisson process of the given rate. Gaps are floored at a tenth of the
// mean gap: requests are never due at the same instant, so the order in
// which the server sees them — and with it the order region IDs are
// allocated in — does not depend on scheduler luck.
func poissonSchedule(r *rand.Rand, rate float64, n int) []time.Duration {
	mean := float64(time.Second) / rate
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		gap := r.ExpFloat64() * mean
		if gap < mean/10 {
			gap = mean / 10
		}
		at += gap
		out[i] = time.Duration(at)
	}
	return out
}

// rankSampler draws ranks in [0, n): zipf-distributed for skew > 1
// (rank 0 hottest), uniform otherwise.
type rankSampler struct {
	r    *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newRankSampler(r *rand.Rand, skew float64, n int) *rankSampler {
	s := &rankSampler{r: r, n: n}
	if skew > 1 {
		s.zipf = rand.NewZipf(r, skew, 1, uint64(n-1))
	}
	return s
}

func (s *rankSampler) draw() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	return s.r.Intn(s.n)
}

// opKind is one operation class of a workload's mix.
type opKind int

const (
	opAnonymize opKind = iota
	opSetTrust
	opReduce
	opTouch
	opDeregister
	opGetRegion
	opRequestKeys
	numOpKinds
)

var opNames = [numOpKinds]string{
	"anonymize", "set_trust", "reduce", "touch", "deregister", "get_region", "request_keys",
}

func (k opKind) String() string { return opNames[k] }

// mixWeight is one entry of an op mix; weights are relative.
type mixWeight struct {
	kind   opKind
	weight int
}

// drawOp draws one op kind from the weighted mix.
func drawOp(r *rand.Rand, mix []mixWeight) opKind {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	x := r.Intn(total)
	for _, m := range mix {
		if x < m.weight {
			return m.kind
		}
		x -= m.weight
	}
	panic("unreachable: x < total")
}
