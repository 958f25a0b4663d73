package cloak

import (
	"fmt"
	"slices"
	"testing"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// stateSnap is what a verification must leave as it found it.
type stateSnap struct {
	rows, front []roadnet.SegmentID
	bbox        geom.BBox
	users       int
	sigma       float64
	hasDensity  bool
}

func snapState(st *state) stateSnap {
	return stateSnap{rows: slices.Clone(st.rows), front: slices.Clone(st.front), bbox: st.bbox,
		users: st.users, sigma: st.sigma, hasDensity: st.density != nil}
}

func (s stateSnap) equal(o stateSnap) bool {
	return slices.Equal(s.rows, o.rows) && slices.Equal(s.front, o.front) && sameBits(s.bbox, o.bbox) &&
		s.users == o.users && s.sigma == o.sigma && s.hasDensity == o.hasDensity
}

// readerVerdict is the predicate verifyChain decides, computed the slow
// way: run the reader's search under the budget and accept iff it returns
// the reverse of a.seq with the level's start head.
func readerVerdict(a *arena, stp stepper, head roadnet.SegmentID, budget int) bool {
	st := a.st
	density := st.density
	st.density = nil // the reader has none
	defer func() { st.density = density }()
	rs := a.runSearch(stp, len(a.seq), roadnet.InvalidSegment, 1, budget, nil)
	if rs.found == 0 || rs.startHead != head || len(rs.chain) != len(a.seq) {
		return false
	}
	for i, id := range rs.chain {
		if id != a.seq[len(a.seq)-1-i] {
			return false
		}
	}
	return true
}

// TestVerifyMatchesReaderSearch is the differential test of the
// anonymizer's verification: at every level the golden requests expand,
// its verdict must be the one the reader's own search gives — under the
// real budget and under a sweep of smaller ones that lands verdicts on
// both sides of the budget line — and the state must come back exactly,
// whichever way the verdict went.
func TestVerifyMatchesReaderSearch(t *testing.T) {
	var levels, calls, accepted, ambiguous, exhausted, flipped, disagreements int
	for _, w := range goldenWorlds(t, !testing.Short()) {
		for _, algo := range []Algorithm{RGE, RPLE} {
			e := w.engines[algo]
			for _, gp := range w.profiles {
				for i, user := range w.users {
					name := fmt.Sprintf("verify/%s/%v/%s/%02d", w.name, algo, gp.name, i)
					a := e.acquire(e.density)
					st := a.st
					st.add(user)
					head := user
					for li, lv := range gp.p.Levels {
						a.key.begin(goldenKey(name, fmt.Sprintf("level%d", li+1)), li+1)
						st.sigma = lv.SigmaS
						var stp stepper
						salt, grown := uint32(0), false
						for ; !grown && int(salt) < e.opts.MaxRetries; salt++ {
							stp = a.stepper(algo, e.opts.Pre, salt)
							grown = e.expandLevel(a, stp, head, lv)
						}
						if !grown {
							break // a request Anonymize refuses
						}
						steps, size := len(a.seq), st.size()
						if steps == 0 {
							continue
						}
						levels++
						meta := LevelMeta{Steps: steps, Salt: salt - 1, SigmaS: lv.SigmaS}
						seq, snap := slices.Clone(a.seq), snapState(st)
						sawAccept, sawRefuse := false, false
						for _, budget := range []int{
							searchBudget(size, steps), steps - 1, steps, steps + 1,
							size + steps, size + steps + 7, 2 * (size + steps + 7), 8 * (size + steps),
						} {
							before := a.stats
							got := a.levelReverses(stp, head, meta, budget)
							if !snapState(st).equal(snap) || !slices.Equal(a.seq, seq) {
								t.Fatalf("%s level %d budget %d: state not restored after verdict %v",
									name, li+1, budget, got)
							}
							calls++
							sawAccept, sawRefuse = sawAccept || got, sawRefuse || !got
							switch {
							case got:
								accepted++
							case a.stats.SearchesAmbiguous > before.SearchesAmbiguous:
								ambiguous++
							case a.stats.SearchesExhausted > before.SearchesExhausted:
								exhausted++
							default:
								t.Fatalf("%s level %d budget %d: refused without an outcome", name, li+1, budget)
							}
							if d := a.stats.SearchNodes - before.SearchNodes; d == 0 || int(d) > budget+1 {
								t.Fatalf("%s level %d budget %d: %d nodes counted", name, li+1, budget, d)
							}
							want := readerVerdict(a, stp, head, budget)
							if !snapState(st).equal(snap) {
								t.Fatalf("%s level %d budget %d: reader's search did not restore the state",
									name, li+1, budget)
							}
							if got != want {
								if disagreements++; disagreements <= 10 {
									t.Errorf("%s level %d (%d steps, region %d) budget %d: verification says %v, the reader's search %v",
										name, li+1, steps, size, budget, got, want)
								}
							}
						}
						if sawAccept && sawRefuse {
							flipped++
						}
						head = seq[steps-1]
					}
					e.release(a)
				}
			}
		}
	}
	t.Logf("%d levels, %d verdicts (%d accepted, %d ambiguous, %d exhausted; %d levels flip with the budget): %d disagreements",
		levels, calls, accepted, ambiguous, exhausted, flipped, disagreements)
	if accepted == 0 || ambiguous == 0 || exhausted == 0 || flipped == 0 {
		t.Errorf("sweep lost coverage: %d accepted, %d ambiguous, %d exhausted, %d flipped",
			accepted, ambiguous, exhausted, flipped)
	}
}

// TestPaperCounts pins what `make bench-engine` prints as counts, over all
// 200 paper requesters: how every level was settled (published facts —
// they move only if published regions do), what the reader's searches cost
// (frozen with the reader) and what the anonymizer's verifications cost
// (its own business, pinned so that a change shows).
func TestPaperCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale: builds the atlanta RPLE tables")
	}
	want := map[Algorithm]struct{ anonymize, reduce Stats }{
		RGE: {
			Stats{TaglessLevels: 392, TaggedLevels: 208,
				Searches: 598, SearchesAmbiguous: 206, SearchesExhausted: 2, SearchNodes: 48647},
			Stats{Searches: 390, SearchNodes: 34209},
		},
		RPLE: {
			Stats{TaglessLevels: 293, TaggedLevels: 306, SaltRetries: 70, Refusals: 1,
				Searches: 593, SearchesAmbiguous: 291, SearchesExhausted: 15, SearchNodes: 111404},
			Stats{Searches: 287, SearchNodes: 36591},
		},
	}
	for _, algo := range []Algorithm{RGE, RPLE} {
		e, users := paperEngine(t, algo)
		before := e.Stats()
		cuts := paperCuts(e, users, len(users))
		mid := e.Stats()
		for i, c := range cuts {
			if _, err := e.Deanonymize(c.region, c.keys, 0); err != nil {
				t.Fatalf("%v region %d: %v", algo, i, err)
			}
		}
		got := struct{ anonymize, reduce Stats }{statsSince(mid, before), statsSince(e.Stats(), mid)}
		if got != want[algo] {
			t.Errorf("%v over %d requesters:\n got anonymize %+v\n          reduce %+v\nwant anonymize %+v\n          reduce %+v",
				algo, len(users), got.anonymize, got.reduce, want[algo].anonymize, want[algo].reduce)
		}
	}
}

func statsSince(now, then Stats) Stats {
	return Stats{
		Searches:          now.Searches - then.Searches,
		SearchesExhausted: now.SearchesExhausted - then.SearchesExhausted,
		SearchesEmpty:     now.SearchesEmpty - then.SearchesEmpty,
		SearchesAmbiguous: now.SearchesAmbiguous - then.SearchesAmbiguous,
		SearchNodes:       now.SearchNodes - then.SearchNodes,
		TaglessLevels:     now.TaglessLevels - then.TaglessLevels,
		TaggedLevels:      now.TaggedLevels - then.TaggedLevels,
		SaltRetries:       now.SaltRetries - then.SaltRetries,
		Refusals:          now.Refusals - then.Refusals,
	}
}
