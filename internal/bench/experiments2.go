package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/reversecloak/reversecloak/internal/baseline"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/metrics"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/query"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// E10Workload validates the workload substrate against the paper's setup:
// "a real road network map of northwest part of Atlanta, involving 6979
// junctions and 9187 segments ... 10,000 cars randomly generated along the
// roads based on Gaussian distribution."
func E10Workload(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E10: workload substrate vs paper",
		"quantity", "paper", "reproduced")

	g, sim := env.G, env.Sim
	counts := sim.Counts()
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	var total, occupied, topDecile int
	for i, c := range counts {
		total += c
		if c > 0 {
			occupied++
		}
		if i < len(counts)/10 {
			topDecile += c
		}
	}
	tab.AddRow("map", "Atlanta NW (USGS)", "synthetic")
	tab.AddRow("junctions", "6979", fmt.Sprintf("%d", g.NumJunctions()))
	tab.AddRow("segments", "9187", fmt.Sprintf("%d", g.NumSegments()))
	tab.AddRow("cars", "10000", fmt.Sprintf("%d", sim.NumCars()))
	tab.AddRow("placement", "Gaussian", "Gaussian mixture")
	tab.AddRow("occupied segments", "-", fmt.Sprintf("%d (%.0f%%)",
		occupied, 100*float64(occupied)/float64(g.NumSegments())))
	tab.AddRow("top-decile share", "-", fmt.Sprintf("%.0f%%",
		100*float64(topDecile)/float64(total)))
	tab.AddRow("max per segment", "-", fmt.Sprintf("%d", counts[0]))
	return tab, nil
}

// E11Adversary quantifies the keyless-irreversibility claim: "without the
// secret key, the cloaked region preserves strong privacy properties,
// allowing no additional information to be inferred even when the adversary
// has complete knowledge about the location perturbation algorithm."
func E11Adversary(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E11: keyless adversary (k=20 single-level cloaks, 8 guessed keys each)",
		"metric", "RGE", "RPLE")
	const guesses = 8
	prof := uniformProfile(1, 20)
	users := env.SampleUsers(min(env.Opts.Trials, 6), "e11")
	ks := env.keysFor("e11", 1)

	type tally struct {
		rejected, accepted, truthHits, trials int
		chains                                metrics.Stats
	}
	run := func(algo cloak.Algorithm) (*tally, error) {
		var tl tally
		eng := env.Engine(algo)
		var pre *cloak.Preassignment
		if algo == cloak.RPLE {
			pre = env.Pre
		}
		for _, u := range users {
			cr, tr, err := eng.Anonymize(cloak.Request{UserSegment: u, Profile: prof, Keys: ks})
			if errors.Is(err, cloak.ErrCloakFailed) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("bench: E11 cloak: %w", err)
			}
			for gi := 0; gi < guesses; gi++ {
				tl.trials++
				guess := prng.Derive(env.Opts.Seed, fmt.Sprintf("e11/guess/%v/%d/%d", algo, u, gi))
				chains, err := cloak.EnumerateReversals(env.G, algo, pre, cr.Segments,
					cr.Levels[0].Steps, guess, 1, cr.Levels[0].Salt, 0, 32)
				if err != nil {
					return nil, fmt.Errorf("bench: E11 enumerate: %w", err)
				}
				if len(chains) == 0 {
					tl.rejected++
					continue
				}
				tl.accepted++
				tl.chains.Add(float64(len(chains)))
				seq := tr.LevelSeqs[0]
				for _, chain := range chains {
					match := len(chain) == len(seq)
					for i := 0; match && i < len(chain); i++ {
						if chain[i] != seq[len(seq)-1-i] {
							match = false
						}
					}
					if match {
						tl.truthHits++
						break
					}
				}
			}
		}
		return &tl, nil
	}

	tg, err := run(cloak.RGE)
	if err != nil {
		return nil, err
	}
	tp, err := run(cloak.RPLE)
	if err != nil {
		return nil, err
	}
	pct := func(n, d int) string {
		if d == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(d))
	}
	tab.AddRow("guessed keys rejected", pct(tg.rejected, tg.trials), pct(tp.rejected, tp.trials))
	tab.AddRow("keys yielding chains", pct(tg.accepted, tg.trials), pct(tp.accepted, tp.trials))
	tab.AddRow("mean chains when accepted",
		meanOf("%.1f", tg.chains), meanOf("%.1f", tp.chains))
	tab.AddRow("true chain recovered", pct(tg.truthHits, tg.trials), pct(tp.truthHits, tp.trials))
	return tab, nil
}

// E12QueryQoS measures anonymous range-query overhead by privacy level:
// the price (in candidate results) of each level of the cloak.
func E12QueryQoS(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E12: anonymous range query overhead by privacy level (500 POIs, r=400m)",
		"level", "region segs", "candidates", "overhead vs exact")
	pois, err := query.GeneratePOIs(env.G, 500, env.Opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: E12 pois: %w", err)
	}
	ix := query.NewIndex(env.G, pois)
	const radius = 400.0
	const n = 3
	prof := uniformProfile(n, 10)
	ks := env.keysFor("e12", n)
	users := env.SampleUsers(env.Opts.Trials, "e12")
	km := keyMap(ks)

	sizes := make([]metrics.Stats, n+1)
	cands := make([]metrics.Stats, n+1)
	overs := make([]metrics.Stats, n+1)
	used := 0
	for _, u := range users {
		cr, _, err := env.RGE.Anonymize(cloak.Request{UserSegment: u, Profile: prof, Keys: ks})
		if errors.Is(err, cloak.ErrCloakFailed) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bench: E12: %w", err)
		}
		used++
		exact, err := ix.RangeCloaked([]roadnet.SegmentID{u}, radius)
		if err != nil {
			return nil, err
		}
		for lv := 0; lv <= n; lv++ {
			var regionSegs []roadnet.SegmentID
			if lv == n {
				regionSegs = cr.Segments
			} else {
				out, err := env.RGE.Deanonymize(cr, km, lv)
				if err != nil {
					return nil, fmt.Errorf("bench: E12 dean: %w", err)
				}
				regionSegs = out.Segments
			}
			cand, err := ix.RangeCloaked(regionSegs, radius)
			if err != nil {
				return nil, err
			}
			sizes[lv].Add(float64(len(regionSegs)))
			cands[lv].Add(float64(len(cand)))
			overs[lv].Add(query.Overhead(len(exact), len(cand)))
		}
	}
	if used == 0 {
		return nil, errors.New("bench: E12 produced no cloaks")
	}
	for lv := 0; lv <= n; lv++ {
		tab.AddRow(
			fmt.Sprintf("L%d", lv),
			meanOf("%.1f", sizes[lv]),
			meanOf("%.1f", cands[lv]),
			meanOf("%.2fx", overs[lv]),
		)
	}
	return tab, nil
}

// E13Baselines compares ReverseCloak against the non-reversible and
// naive-reversible baselines on time and payload size.
func E13Baselines(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E13: ReverseCloak vs baselines (3 levels, base k=10)",
		"scheme", "anonymize mean", "payload bytes", "reversible")
	const n = 3
	prof := uniformProfile(n, 10)
	ks := env.keysFor("e13", n)
	users := env.SampleUsers(env.Opts.Trials, "e13")

	var tRGE, tRPLE, tRand, tNaive metrics.Stats
	var bRC, bNaive metrics.Stats
	for _, u := range users {
		req := cloak.Request{UserSegment: u, Profile: prof, Keys: ks}
		start := time.Now()
		crG, _, errG := env.RGE.Anonymize(req)
		dG := time.Since(start)
		start = time.Now()
		_, _, errP := env.RPLE.Anonymize(req)
		dP := time.Since(start)

		start = time.Now()
		_, errR := baseline.RandomExpansion(env.G, env.Sim.UsersOn, u,
			prof.Levels[n-1], ks[0])
		dR := time.Since(start)
		start = time.Now()
		np, errN := baseline.NaiveAnonymize(env.G, env.Sim.UsersOn, u, prof, ks)
		dN := time.Since(start)

		if errG != nil || errP != nil || errR != nil || errN != nil {
			continue
		}
		tRGE.AddDuration(dG)
		tRPLE.AddDuration(dP)
		tRand.AddDuration(dR)
		tNaive.AddDuration(dN)
		bRC.Add(float64(regionJSONBytes(crG)))
		bNaive.Add(float64(np.Bytes()))
	}
	tab.AddRow("ReverseCloak RGE", meanDuration(tRGE), meanOf("%.0f", bRC), "yes (keyed, in place)")
	tab.AddRow("ReverseCloak RPLE", meanDuration(tRPLE), meanOf("%.0f", bRC), "yes (keyed, in place)")
	tab.AddRow("random expansion [9]", meanDuration(tRand), "region only", "no")
	tab.AddRow("naive encrypted lists", meanDuration(tNaive), meanOf("%.0f", bNaive), "yes (payload grows)")
	return tab, nil
}

// regionJSONBytes measures the published size of a cloaked region.
func regionJSONBytes(cr *cloak.CloakedRegion) int {
	raw, err := json.Marshal(cr)
	if err != nil {
		return 0
	}
	return len(raw)
}
