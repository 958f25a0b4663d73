// Benchmarks: one testing.B entry point per evaluation artifact. The
// printed tables come from cmd/reversecloak-bench; these benchmarks
// measure the underlying operations with -benchmem.
package reversecloak_test

import (
	"fmt"
	"testing"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/baseline"
	"github.com/reversecloak/reversecloak/internal/bench"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/query"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// benchSeed keys every benchmark deterministically.
func benchSeed() []byte { return []byte("reversecloak-bench-seed-2017-001") }

// newBenchEnv builds the harness's environment: the paper's Atlanta NW
// map with 10 000 cars.
func newBenchEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(bench.Options{Seed: benchSeed()})
	if err != nil {
		b.Fatalf("env: %v", err)
	}
	return env
}

// benchKeys derives deterministic level keys.
func benchKeys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		k := make([]byte, 32)
		for j := range k {
			k[j] = byte(37*i + j)
		}
		out[i] = k
	}
	return out
}

// kProfile is a single-level profile with the given k.
func kProfile(k int) profile.Profile {
	l := k / 3
	if l < 2 {
		l = 2
	}
	return profile.Profile{Levels: []profile.Level{{K: k, L: l}}}
}

// anonymizeLoop drives an anonymize benchmark over rotating users.
func anonymizeLoop(b *testing.B, eng *cloak.Engine, prof profile.Profile) {
	b.Helper()
	keys := benchKeys(len(prof.Levels))
	users := []roadnet.SegmentID{50, 300, 700, 1100, 1500, 1900}
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		if _, _, err := eng.Anonymize(cloak.Request{UserSegment: u, Profile: prof, Keys: keys}); err == nil {
			done++
		}
	}
	if done == 0 {
		b.Fatal("no cloak succeeded")
	}
}

// BenchmarkE5AnonymizeRGE / RPLE: the paper's headline trade-off, k=40.
func BenchmarkE5AnonymizeRGE(b *testing.B) {
	env := newBenchEnv(b)
	anonymizeLoop(b, env.RGE, kProfile(40))
}

func BenchmarkE5AnonymizeRPLE(b *testing.B) {
	env := newBenchEnv(b)
	anonymizeLoop(b, env.RPLE, kProfile(40))
}

// BenchmarkE5PreassignmentBuild: RPLE's precomputation cost (its memory is
// reported by the harness table).
func BenchmarkE5PreassignmentBuild(b *testing.B) {
	env := newBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cloak.NewPreassignment(env.G, cloak.DefaultTransitionListLength); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Levels: multi-level anonymization cost by level count.
func BenchmarkE6Levels(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("N=%d", n+1), func(b *testing.B) {
			env := newBenchEnv(b)
			prof := profile.Profile{Levels: make([]profile.Level, n)}
			k := 10
			for i := range prof.Levels {
				l := k / 3
				if l < 2 {
					l = 2
				}
				prof.Levels[i] = profile.Level{K: k, L: l}
				k *= 2
			}
			anonymizeLoop(b, env.RGE, prof)
		})
	}
}

// BenchmarkE7Deanonymize: full peel of a 3-level cloak.
func BenchmarkE7Deanonymize(b *testing.B) {
	for _, algo := range []cloak.Algorithm{cloak.RGE, cloak.RPLE} {
		b.Run(algo.String(), func(b *testing.B) {
			env := newBenchEnv(b)
			eng := env.RGE
			if algo == cloak.RPLE {
				eng = env.RPLE
			}
			prof := profile.Profile{Levels: []profile.Level{
				{K: 10, L: 3}, {K: 20, L: 6}, {K: 40, L: 13},
			}}
			keys := benchKeys(3)
			cr, _, err := eng.Anonymize(cloak.Request{UserSegment: 700, Profile: prof, Keys: keys})
			if err != nil {
				b.Fatalf("cloak: %v", err)
			}
			km := map[int][]byte{1: keys[0], 2: keys[1], 3: keys[2]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Deanonymize(cr, km, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8K: anonymization cost versus delta_k.
func BenchmarkE8K(b *testing.B) {
	for _, k := range []int{10, 40, 160} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			env := newBenchEnv(b)
			anonymizeLoop(b, env.RGE, kProfile(k))
		})
	}
}

// BenchmarkE9ToleranceBounded: cloaking under a tight spatial tolerance
// (includes the failure/retry path).
func BenchmarkE9ToleranceBounded(b *testing.B) {
	env := newBenchEnv(b)
	prof := profile.Profile{Levels: []profile.Level{{K: 40, L: 13, SigmaS: 2500}}}
	anonymizeLoop(b, env.RGE, prof)
}

// BenchmarkE10TraceGeneration: the GTMobiSim-substitute workload cost.
func BenchmarkE10TraceGeneration(b *testing.B) {
	env := newBenchEnv(b)
	cars := env.Sim.NumCars()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.New(env.G, trace.Config{Cars: cars, Seed: benchSeed()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10MapGeneration: the synthetic Atlanta substrate.
func BenchmarkE10MapGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mapgen.AtlantaNW(benchSeed()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11AdversaryEnumerate: the keyless attacker's search cost per
// guessed key.
func BenchmarkE11AdversaryEnumerate(b *testing.B) {
	env := newBenchEnv(b)
	keys := benchKeys(1)
	cr, _, err := env.RGE.Anonymize(cloak.Request{UserSegment: 700, Profile: kProfile(20), Keys: keys})
	if err != nil {
		b.Fatal(err)
	}
	guess := benchKeys(2)[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cloak.EnumerateReversals(env.G, cloak.RGE, nil, cr.Segments,
			cr.Levels[0].Steps, guess, 1, cr.Levels[0].Salt, 0, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12QueryCloaked: anonymous range query over a cloaked region.
func BenchmarkE12QueryCloaked(b *testing.B) {
	env := newBenchEnv(b)
	pois, err := query.GeneratePOIs(env.G, 500, benchSeed())
	if err != nil {
		b.Fatal(err)
	}
	ix := query.NewIndex(env.G, pois)
	cr, _, err := env.RGE.Anonymize(cloak.Request{UserSegment: 700, Profile: kProfile(40), Keys: benchKeys(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.RangeCloaked(cr.Segments, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13RandomExpansion: the non-reversible baseline.
func BenchmarkE13RandomExpansion(b *testing.B) {
	env := newBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RandomExpansion(env.G, env.Sim.UsersOn, 700,
			profile.Level{K: 40, L: 13}, benchSeed()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13NaiveAnonymize: the encrypted-list strawman.
func BenchmarkE13NaiveAnonymize(b *testing.B) {
	env := newBenchEnv(b)
	prof := profile.Profile{Levels: []profile.Level{
		{K: 10, L: 3}, {K: 20, L: 6}, {K: 40, L: 13},
	}}
	keys := benchKeys(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.NaiveAnonymize(env.G, env.Sim.UsersOn, 700, prof, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeRoundTrip exercises the public API end to end.
func BenchmarkFacadeRoundTrip(b *testing.B) {
	g, err := rc.GridMap(16, 16, 120)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := rc.NewRGEEngine(g, func(rc.SegmentID) int { return 2 })
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(2)
	prof := rc.Profile{Levels: []rc.Level{{K: 8, L: 4}, {K: 16, L: 8}}}
	km := map[int][]byte{1: keys[0], 2: keys[1]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, _, err := engine.Anonymize(rc.Request{UserSegment: 100, Profile: prof, Keys: keys})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Deanonymize(cr, km, 0); err != nil {
			b.Fatal(err)
		}
	}
}
