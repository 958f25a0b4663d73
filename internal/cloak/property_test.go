package cloak

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// TestRoundTripProperty is the paper's central guarantee as a property:
// for arbitrary keys and user segments, anonymization followed by keyed
// de-anonymization recovers the exact lower-level regions (or cloaking
// reports failure; it must never round-trip to a wrong region).
func TestRoundTripProperty(t *testing.T) {
	engines := map[string]*Engine{
		"RGE":  newTestEngine(t, RGE, 8, 8, constDensity(1)),
		"RPLE": newTestEngine(t, RPLE, 8, 8, constDensity(1)),
	}
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			nSegs := e.Graph().NumSegments()
			f := func(userRaw uint16, k1 byte, k2 byte, kReq uint8) bool {
				user := roadnet.SegmentID(int(userRaw) % nSegs)
				k := 3 + int(kReq)%6 // k in [3, 8]
				prof := profile.Profile{Levels: []profile.Level{
					{K: k, L: k},
					{K: 2 * k, L: 2 * k},
				}}
				ks := [][]byte{seed(k1), seed(k2)}
				cr, _, err := e.Anonymize(Request{UserSegment: user, Profile: prof, Keys: ks})
				if errors.Is(err, ErrCloakFailed) {
					return true // failure is allowed; wrong results are not
				}
				if err != nil {
					return false
				}
				l0, err := e.Deanonymize(cr, map[int][]byte{1: ks[0], 2: ks[1]}, 0)
				if err != nil {
					return false
				}
				return len(l0.Segments) == 1 && l0.Segments[0] == user
			}
			cfg := &quick.Config{MaxCount: 40}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestIntermediateLevelProperty checks that peeling to an intermediate
// level always yields exactly the region the anonymizer passed through.
func TestIntermediateLevelProperty(t *testing.T) {
	e := newTestEngine(t, RGE, 8, 8, constDensity(1))
	nSegs := e.Graph().NumSegments()
	f := func(userRaw uint16, kb byte) bool {
		user := roadnet.SegmentID(int(userRaw) % nSegs)
		prof := profile.Profile{Levels: []profile.Level{
			{K: 3, L: 3},
			{K: 6, L: 6},
			{K: 10, L: 10},
		}}
		ks := [][]byte{seed(kb), seed(kb + 1), seed(kb + 2)}
		cr, tr, err := e.Anonymize(Request{UserSegment: user, Profile: prof, Keys: ks})
		if errors.Is(err, ErrCloakFailed) {
			return true
		}
		if err != nil {
			return false
		}
		want := []roadnet.SegmentID{user}
		want = append(want, tr.LevelSeqs[0]...)
		want = append(want, tr.LevelSeqs[1]...)
		l2, err := e.Deanonymize(cr, map[int][]byte{3: ks[2]}, 2)
		if err != nil {
			return false
		}
		return sameIDSet(l2.Segments, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// oracleState is the reference the dense state must agree with: a plain
// member map, every answer recomputed from it, nothing maintained.
type oracleState struct {
	g       *roadnet.Graph
	members map[roadnet.SegmentID]bool
	sigma   float64
	density DensityFunc
}

func (o *oracleState) bbox() (b geom.BBox) {
	for id := range o.members {
		b = b.Union(o.g.SegmentBounds(id))
	}
	return b
}

func (o *oracleState) users() (n int) {
	for id := range o.members {
		n += o.density(id)
	}
	return n
}

func (o *oracleState) canonical(ids []roadnet.SegmentID) []roadnet.SegmentID {
	o.g.SortCanonical(ids)
	return ids
}

func (o *oracleState) rows() (out []roadnet.SegmentID) {
	for id := range o.members {
		out = append(out, id)
	}
	return o.canonical(out)
}

func (o *oracleState) candidates() (out []roadnet.SegmentID) {
	seen := map[roadnet.SegmentID]bool{}
	box := o.bbox()
	for id := range o.members {
		for _, nb := range o.g.Neighbors(id) {
			if o.members[nb] || seen[nb] {
				continue
			}
			seen[nb] = true
			if o.sigma <= 0 || box.Union(o.g.SegmentBounds(nb)).Diagonal() <= o.sigma {
				out = append(out, nb)
			}
		}
	}
	return o.canonical(out)
}

func (o *oracleState) connectedWithout(id roadnet.SegmentID) bool {
	if !o.members[id] || len(o.members) < 2 {
		return false
	}
	set := map[roadnet.SegmentID]bool{}
	for m := range o.members {
		set[m] = m != id
	}
	return o.g.SegmentSetConnected(set)
}

// sameBits reports whether two boxes hold the same float bits.
func sameBits(a, b geom.BBox) bool {
	bits := func(x geom.BBox) [4]uint64 {
		return [4]uint64{math.Float64bits(x.Min.X), math.Float64bits(x.Min.Y),
			math.Float64bits(x.Max.X), math.Float64bits(x.Max.Y)}
	}
	return a.Empty() == b.Empty() && bits(a) == bits(b)
}

// agree compares the dense state with the oracle on everything the engine
// reads from it.
func agree(t *testing.T, st *state, o *oracleState) bool {
	t.Helper()
	rows, can := o.rows(), o.candidates()
	ok := slices.Equal(st.rows, rows) && slices.Equal(st.candidates(), can) &&
		st.size() == len(rows) && sameBits(st.bbox, o.bbox()) && st.users == o.users()
	if !ok {
		t.Logf("dense rows %v cands %v bbox %v users %d\noracle rows %v cands %v bbox %v users %d",
			st.rows, st.candidates(), st.bbox, st.users, rows, can, o.bbox(), o.users())
		return false
	}
	inCan := map[roadnet.SegmentID]bool{}
	for _, c := range can {
		inCan[c] = true
	}
	for id := roadnet.SegmentID(0); int(id) < o.g.NumSegments(); id++ {
		if st.has(id) != o.members[id] || st.eligible(id) != inCan[id] {
			t.Logf("segment %d: has %v/%v eligible %v/%v", id, st.has(id), o.members[id], st.eligible(id), inCan[id])
			return false
		}
		// connectedWithout is exact only on a connected region, which is
		// all the engine ever asks it about.
		if set := o.members; o.g.SegmentSetConnected(set) && st.connectedWithout(id) != o.connectedWithout(id) {
			t.Logf("connectedWithout(%d) = %v, oracle %v", id, st.connectedWithout(id), o.connectedWithout(id))
			return false
		}
	}
	return st.connected() == o.g.SegmentSetConnected(o.members)
}

// TestStateAddRemoveProperty drives the dense state and the oracle through
// the same random grow / remove / restore sequences — on one pooled state
// reused across sequences, the way an arena is — and requires agreement
// after every operation, under bounded and unbounded tolerance.
func TestStateAddRemoveProperty(t *testing.T) {
	g, err := mapgen.Small([]byte(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	density := func(id roadnet.SegmentID) int { return int(id)%4 + 1 }
	st := newArena(newTables(g)).st
	f := func(seed int64, bounded bool) bool {
		r := rand.New(rand.NewSource(seed))
		o := &oracleState{g: g, members: map[roadnet.SegmentID]bool{}, density: density}
		st.reset(density)
		if bounded {
			o.sigma = 400 + 800*r.Float64()
			st.sigma = o.sigma
		}
		first := roadnet.SegmentID(r.Intn(g.NumSegments()))
		st.add(first)
		o.members[first] = true
		var removed []roadnet.SegmentID
		for op := 0; op < 40; op++ {
			switch can := st.candidates(); {
			case r.Intn(3) > 0 && len(can) > 0: // grow
				id := can[r.Intn(len(can))]
				st.add(id)
				o.members[id] = true
			case r.Intn(2) == 0 && len(removed) > 0: // restore, as the search does
				id := removed[len(removed)-1]
				removed = removed[:len(removed)-1]
				st.add(id)
				o.members[id] = true
			case st.size() > 1: // remove any member, cut segments included
				id := st.rows[r.Intn(st.size())]
				st.remove(id)
				delete(o.members, id)
				removed = append(removed, id)
			}
			if !agree(t, st, o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCandidatesProperty: candidate sets are duplicate-free, disjoint from
// the region, adjacent to it, within tolerance and canonically ordered —
// and equal to the oracle's.
func TestCandidatesProperty(t *testing.T) {
	g := gridGraph(t, 6, 6)
	nSegs := g.NumSegments()
	st := newArena(newTables(g)).st
	f := func(aRaw, bRaw uint16, bounded bool) bool {
		a := roadnet.SegmentID(int(aRaw) % nSegs)
		o := &oracleState{g: g, members: map[roadnet.SegmentID]bool{a: true}, density: constDensity(1)}
		st.reset(nil)
		if bounded {
			st.sigma, o.sigma = 250, 250
		}
		st.add(a)
		// Grow by one adjacent segment for a 2-segment region.
		nbs := g.Neighbors(a)
		b := nbs[int(bRaw)%len(nbs)]
		st.add(b)
		o.members[b] = true
		can := slices.Clone(st.candidates())
		if !slices.Equal(can, o.candidates()) {
			return false
		}
		seen := make(map[roadnet.SegmentID]bool)
		for i, c := range can {
			if st.has(c) || seen[c] {
				return false
			}
			seen[c] = true
			if !st.eligible(c) || !st.withinTolerance(c) {
				return false
			}
			if i > 0 {
				li, lj := g.SegmentLength(can[i-1]), g.SegmentLength(c)
				if li > lj || (li == lj && can[i-1] > c) {
					return false // not canonical order
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSaltsArePublic checks the collision-avoidance accounting: whatever
// salts the engine settles on are recorded in the public metadata, and the
// de-anonymizer needs nothing else.
func TestSaltsArePublic(t *testing.T) {
	e := newTestEngine(t, RGE, 8, 8, constDensity(1))
	ks := testKeys(2)
	prof := profile.Profile{Levels: []profile.Level{{K: 5, L: 5}, {K: 12, L: 12}}}
	cr, tr, err := e.Anonymize(Request{UserSegment: 20, Profile: prof, Keys: ks})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cr.Levels {
		if cr.Levels[i].Salt != tr.Salts[i] {
			t.Errorf("level %d: published salt %d != accepted salt %d",
				i+1, cr.Levels[i].Salt, tr.Salts[i])
		}
	}
}
