package cloak

// Paper-scale engine benchmarks: the atlanta map, 10 000 cars, the default
// three-level profile and density-weighted requesters — the shape of the
// repository benchmark's register_paper and reduce_cold workloads without
// the server around it.
//
//	make bench-engine        # go test -run xxx -bench BenchmarkPaper -benchtime 20x ./internal/cloak
//
// Besides time and allocations each reports what the engine did per op:
// search nodes (its unit of work), tag PRFs (the work of tagged levels),
// budget-exhausted searches and tagged levels; Anonymize also reports the
// p50 and p99 of its calls, because its mean sits far above its median (a
// few requests do most of the nodes). The counts are exact. Tagged levels
// are a published fact and never move unless published regions do; so are
// Deanonymize's nodes, the reader's search being frozen. Anonymize's nodes
// and exhausted count say what the anonymizer's own verification cost:
// they moved by design (1 291 -> 243 nodes/op for RGE at 200x) with every
// region identical, as Deanonymize's tag PRFs did (~490 -> ~48 per tagged
// level for RGE) when the reader's tag walk began following the backward
// transition.
// TestPaperCounts pins the counts over all 200 requesters.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// paperWorld is built once per test binary, over the shared atlanta tables.
var paperWorld struct {
	once    sync.Once
	err     error
	engines map[Algorithm]*Engine
	users   []roadnet.SegmentID
}

const paperRequesters = 200

func paperEngine(tb testing.TB, algo Algorithm) (*Engine, []roadnet.SegmentID) {
	tb.Helper()
	g, pre := atlantaTables(tb)
	w := &paperWorld
	w.once.Do(func() {
		sim, err := trace.New(g, trace.Config{Cars: 10000, Seed: []byte(goldenSeed)})
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
		tb.Fatal(w.err)
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

// paperCut is one published paper region with the keys that reduce it.
type paperCut struct {
	region *CloakedRegion
	keys   map[int][]byte
}

// paperCuts anonymizes the requesters in order until it has n regions or
// has tried them all; refused requests yield none.
func paperCuts(e *Engine, users []roadnet.SegmentID, n int) []paperCut {
	var cuts []paperCut
	for i := 0; len(cuts) < n && i < len(users); i++ {
		req := paperRequest(users, i)
		region, _, err := e.Anonymize(req)
		if err != nil {
			continue
		}
		c := paperCut{region: region, keys: map[int][]byte{}}
		for l, k := range req.Keys {
			c.keys[l+1] = k
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// reportEngineWork reports the per-op deltas of the engine's counters.
func reportEngineWork(b *testing.B, e *Engine, before Stats) {
	d, n := statsSince(e.Stats(), before), float64(b.N)
	b.ReportMetric(float64(d.SearchNodes)/n, "nodes/op")
	b.ReportMetric(float64(d.TagPRFs)/n, "tag_prfs/op")
	b.ReportMetric(float64(d.SearchesExhausted)/n, "exhausted/op")
	b.ReportMetric(float64(d.TaggedLevels)/n, "tagged_levels/op")
}

func BenchmarkPaperAnonymize(b *testing.B) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		b.Run(algo.String(), func(b *testing.B) {
			e, users := paperEngine(b, algo)
			reqs := make([]Request, min(b.N, len(users)))
			for i := range reqs {
				reqs[i] = paperRequest(users, i)
			}
			took := make([]time.Duration, b.N)
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				// RPLE refuses a small share of requests; that is an answer.
				_, _, _ = e.Anonymize(reqs[i%len(reqs)])
				took[i] = time.Since(start)
			}
			b.StopTimer()
			reportEngineWork(b, e, before)
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2]), "p50-ns/op")
			b.ReportMetric(float64(took[len(took)*99/100]), "p99-ns/op")
		})
	}
}

func BenchmarkPaperDeanonymize(b *testing.B) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		b.Run(algo.String(), func(b *testing.B) {
			e, users := paperEngine(b, algo)
			cuts := paperCuts(e, users, b.N)
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
