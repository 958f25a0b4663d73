package cloak

// Paper-scale engine benchmarks: the atlanta map, 10 000 cars, the default
// three-level profile and density-weighted requesters — the shape of the
// repository benchmark's register_paper and reduce_cold workloads without
// the server around it.
//
//	make bench-engine        # go test -run xxx -bench BenchmarkPaper -benchtime 20x ./internal/cloak
//
// Besides time and allocations each reports what the engine did per op:
// search nodes (its unit of work), budget-exhausted searches and tagged
// levels. Those three are exact — they must not move unless published
// regions do.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// paperWorld is built once per test binary: RPLE's tables alone take
// several seconds.
var paperWorld struct {
	once    sync.Once
	err     error
	engines map[Algorithm]*Engine
	users   []roadnet.SegmentID
}

const paperRequesters = 200

func paperEngine(b *testing.B, algo Algorithm) (*Engine, []roadnet.SegmentID) {
	b.Helper()
	w := &paperWorld
	w.once.Do(func() {
		g, err := mapgen.AtlantaNW([]byte(goldenSeed))
		if err != nil {
			w.err = err
			return
		}
		sim, err := trace.New(g, trace.Config{Cars: 10000, Seed: []byte(goldenSeed)})
		if err != nil {
			w.err = err
			return
		}
		pre, err := NewPreassignment(g, DefaultTransitionListLength)
		if err != nil {
			w.err = err
			return
		}
		w.engines = map[Algorithm]*Engine{}
		for _, a := range []Algorithm{RGE, RPLE} {
			if w.engines[a], w.err = NewEngine(g, sim.UsersOn, Options{Algorithm: a, Pre: pre}); w.err != nil {
				return
			}
		}
		w.users = densityWeighted(sim.Counts(), paperRequesters, 1)
	})
	if w.err != nil {
		b.Fatal(w.err)
	}
	return w.engines[algo], w.users
}

func paperRequest(users []roadnet.SegmentID, i int) Request {
	i %= len(users)
	p := profile.Default()
	ks := make([][]byte, len(p.Levels))
	for l := range ks {
		ks[l] = goldenKey(fmt.Sprintf("paper/%d", i), fmt.Sprintf("level%d", l+1))
	}
	return Request{UserSegment: users[i], Profile: p, Keys: ks}
}

// reportEngineWork reports the per-op deltas of the engine's counters.
func reportEngineWork(b *testing.B, e *Engine, before Stats) {
	after, n := e.Stats(), float64(b.N)
	b.ReportMetric(float64(after.SearchNodes-before.SearchNodes)/n, "nodes/op")
	b.ReportMetric(float64(after.SearchesExhausted-before.SearchesExhausted)/n, "exhausted/op")
	b.ReportMetric(float64(after.TaggedLevels-before.TaggedLevels)/n, "tagged_levels/op")
}

func BenchmarkPaperAnonymize(b *testing.B) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		b.Run(algo.String(), func(b *testing.B) {
			e, users := paperEngine(b, algo)
			reqs := make([]Request, min(b.N, len(users)))
			for i := range reqs {
				reqs[i] = paperRequest(users, i)
			}
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// RPLE refuses a small share of requests; that is an answer.
				_, _, _ = e.Anonymize(reqs[i%len(reqs)])
			}
			b.StopTimer()
			reportEngineWork(b, e, before)
		})
	}
}

func BenchmarkPaperDeanonymize(b *testing.B) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		b.Run(algo.String(), func(b *testing.B) {
			e, users := paperEngine(b, algo)
			type cut struct {
				region *CloakedRegion
				keys   map[int][]byte
			}
			var cuts []cut
			for i := 0; len(cuts) < min(b.N, len(users)) && i < len(users); i++ {
				req := paperRequest(users, i)
				region, _, err := e.Anonymize(req)
				if err != nil {
					continue
				}
				c := cut{region: region, keys: map[int][]byte{}}
				for l, k := range req.Keys {
					c.keys[l+1] = k
				}
				cuts = append(cuts, c)
			}
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cuts[i%len(cuts)]
				if _, err := e.Deanonymize(c.region, c.keys, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportEngineWork(b, e, before)
		})
	}
}
