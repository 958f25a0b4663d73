package cloak

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// pooledAnswers is everything one request gets back from an engine, kept
// as the returned objects (not their bytes) so that a later comparison
// catches anything still aliasing pooled scratch.
type pooledAnswers struct {
	region  *CloakedRegion
	trace   *Trace
	reduced []*CloakedRegion
	chains  [][]roadnet.SegmentID
}

func (p *pooledAnswers) bytes(t testing.TB) string {
	t.Helper()
	b, err := json.Marshal([]any{p.region, p.trace, p.reduced, p.chains})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// askEverything runs the three engine entry points for requester i of w.
func askEverything(w *goldenWorld, algo Algorithm, i int) (*pooledAnswers, error) {
	name := fmt.Sprintf("pooled/%v/%d", algo, i)
	p := profile.Default()
	ks := make([][]byte, len(p.Levels))
	byLevel := map[int][]byte{}
	for l := range ks {
		ks[l] = goldenKey(name, fmt.Sprintf("level%d", l+1))
		byLevel[l+1] = ks[l]
	}
	e := w.engines[algo]
	out := &pooledAnswers{}
	var err error
	out.region, out.trace, err = e.Anonymize(Request{UserSegment: w.users[i], Profile: p, Keys: ks})
	if err != nil {
		return out, nil // a refusal is an answer too (nil region and trace)
	}
	for to := len(ks) - 1; to >= 0; to-- {
		red, err := e.Deanonymize(out.region, byLevel, to)
		if err != nil {
			return nil, err
		}
		out.reduced = append(out.reduced, red)
	}
	top := out.region.Levels[len(ks)-1]
	out.chains, err = EnumerateReversals(w.g, algo, w.pre, out.region.Segments, top.Steps,
		goldenKey(name, "wrong"), len(ks), top.Salt, top.SigmaS, 8)
	return out, err
}

// TestPooledScratchConcurrent is the test for the failure class pooling
// introduces: 8 goroutines interleave Anonymize, Deanonymize and
// EnumerateReversals on one RGE and one RPLE engine (run it under -race);
// every answer must equal the serial run's bytes, and must STILL equal
// them after the pool has been churned by 100 further calls — nothing
// returned may alias an arena.
func TestPooledScratchConcurrent(t *testing.T) {
	w := goldenWorlds(t, false)[1] // the small map
	algos := []Algorithm{RGE, RPLE}
	const requesters = 10
	want := map[string]string{}
	for _, algo := range algos {
		for i := 0; i < requesters; i++ {
			ans, err := askEverything(w, algo, i)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(algo, i)] = ans.bytes(t)
		}
	}

	const workers = 8
	kept := make([]map[string]*pooledAnswers, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		kept[g] = map[string]*pooledAnswers{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < requesters; n++ {
				i := (n + g) % requesters // every worker in a different phase
				for _, algo := range algos {
					ans, err := askEverything(w, algo, i)
					if err != nil {
						t.Error(err)
						return
					}
					kept[g][fmt.Sprint(algo, i)] = ans
				}
			}
		}(g)
	}
	wg.Wait()
	check := func(when string) {
		for g := range kept {
			for key, ans := range kept[g] {
				if got := ans.bytes(t); got != want[key] {
					t.Fatalf("%s: worker %d, request %s differs from the serial run:\n got %s\nwant %s",
						when, g, key, got, want[key])
				}
			}
		}
	}
	check("after the concurrent run")
	for n := 0; n < 100; n++ {
		if _, err := askEverything(w, algos[n%2], (n/2)%requesters); err != nil {
			t.Fatal(err)
		}
	}
	check("after 100 further calls")
}

// TestAllocCeilings pins the steady-state allocation budget of the request
// path on the small map: what is left is what a call returns (region,
// trace, tags) plus one keyed MAC per level and salt — some 60 and 50
// allocations. A search node that allocates multiplies that by the
// thousand nodes of a request, so anything near these ceilings means
// per-node scratch is being allocated again.
func TestAllocCeilings(t *testing.T) {
	w := goldenWorlds(t, false)[1]
	e := w.engines[RGE]
	p := profile.Default()
	ks := [][]byte{seed(1), seed(2), seed(3)}
	req := Request{UserSegment: w.users[0], Profile: p, Keys: ks}
	cr, _, err := e.Anonymize(req)
	if err != nil {
		t.Fatal(err)
	}
	if cr.PrivacyLevel() != 3 {
		t.Fatalf("want a 3-level region, got %d levels", cr.PrivacyLevel())
	}
	byLevel := map[int][]byte{1: ks[0], 2: ks[1], 3: ks[2]}
	anonymize := testing.AllocsPerRun(20, func() {
		if _, _, err := e.Anonymize(req); err != nil {
			t.Fatal(err)
		}
	})
	deanonymize := testing.AllocsPerRun(20, func() {
		if _, err := e.Deanonymize(cr, byLevel, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: Anonymize %.0f, 3-level Deanonymize %.0f", anonymize, deanonymize)
	if anonymize >= 1000 {
		t.Errorf("Anonymize allocates %.0f times a call, ceiling 1000", anonymize)
	}
	if deanonymize >= 500 {
		t.Errorf("3-level Deanonymize allocates %.0f times a call, ceiling 500", deanonymize)
	}
}

// TestEngineStats checks the counters against a request mix whose
// outcomes are known from what it returns.
func TestEngineStats(t *testing.T) {
	w := goldenWorlds(t, false)[1]
	for _, algo := range []Algorithm{RGE, RPLE} {
		e := w.engines[algo]
		before := e.Stats()
		var levels, tagged, retries, refused uint64
		for i := range w.users {
			ans, err := askEverything(w, algo, i)
			if err != nil {
				t.Fatal(err)
			}
			if ans.region == nil {
				refused++
				continue
			}
			for _, lm := range ans.region.Levels {
				levels++
				retries += uint64(lm.Salt)
				if lm.Tags != nil {
					tagged++
				}
			}
		}
		got := e.Stats()
		if d := got.TaggedLevels - before.TaggedLevels; d != tagged {
			t.Errorf("%v: TaggedLevels grew by %d, regions carry %d tagged levels", algo, d, tagged)
		}
		if d := got.TaglessLevels - before.TaglessLevels; d != levels-tagged {
			t.Errorf("%v: TaglessLevels grew by %d, regions carry %d", algo, d, levels-tagged)
		}
		if d := got.Refusals - before.Refusals; d != refused {
			t.Errorf("%v: Refusals grew by %d, saw %d", algo, d, refused)
		}
		// Every published salt counts the attempts rejected before it; a
		// refusal adds a full retry budget (and whatever its lower levels
		// retried, which nothing published shows).
		if d := got.SaltRetries - before.SaltRetries; d < retries+32*refused || (refused == 0 && d != retries) {
			t.Errorf("%v: SaltRetries grew by %d, want %d (+ refused requests' lower levels)",
				algo, d, retries+32*refused)
		}
		// Every reduce here holds the true keys, so the searches that did
		// not end "ok" are refuted verifications — and each of those is a
		// level that went on to be published with tags (or, in a refused
		// request, to nothing).
		d := statsSince(got, before)
		refuted := d.SearchesAmbiguous + d.SearchesExhausted
		if d.Searches == 0 || d.SearchNodes < d.Searches || d.SearchesEmpty != 0 ||
			d.SearchesAmbiguous == 0 || refuted < tagged || (refused == 0 && refuted != tagged) {
			t.Errorf("%v: implausible search counts for %d tagged levels: %+v", algo, tagged, d)
		}
	}
}
