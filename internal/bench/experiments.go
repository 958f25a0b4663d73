package bench

import (
	"errors"
	"fmt"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/metrics"
	"github.com/reversecloak/reversecloak/internal/profile"
)

// E5TimeMemory reproduces the paper's stated RGE/RPLE trade-off: "RGE has
// larger anonymization runtime ... but smaller memory requirement while
// RPLE has smaller anonymization runtime but requires larger memory space
// to store the collision-free links."
func E5TimeMemory(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E5: anonymization time and memory (RGE vs RPLE), single level",
		"k", "RGE mean", "RPLE mean", "RGE/RPLE", "successes")
	for _, k := range []int{10, 20, 40, 80} {
		var tRGE, tRPLE metrics.Stats
		succ := 0
		users := env.SampleUsers(env.Opts.Trials, fmt.Sprintf("e5/%d", k))
		prof := uniformProfile(1, k)
		ks := env.keysFor("e5", 1)
		for _, u := range users {
			req := cloak.Request{UserSegment: u, Profile: prof, Keys: ks}
			start := time.Now()
			_, _, errG := env.RGE.Anonymize(req)
			dG := time.Since(start)
			start = time.Now()
			_, _, errP := env.RPLE.Anonymize(req)
			dP := time.Since(start)
			if errG != nil || errP != nil {
				continue
			}
			succ++
			tRGE.AddDuration(dG)
			tRPLE.AddDuration(dP)
		}
		ratio := noSamples
		if succ > 0 {
			ratio = fmt.Sprintf("%.2fx", tRGE.Mean()/tRPLE.Mean())
		}
		tab.AddRow(
			fmt.Sprintf("%d", k),
			meanDuration(tRGE),
			meanDuration(tRPLE),
			ratio,
			fmt.Sprintf("%d/%d", succ, len(users)),
		)
	}
	tab.AddRow("--", "--", "--", "--", "--")
	tab.AddRow("memory",
		"RGE: O(1) extra",
		fmt.Sprintf("RPLE tables: %s", metrics.FormatBytes(env.Pre.MemoryBytes())),
		fmt.Sprintf("build %s", metrics.FormatDuration(env.PreBuildTime)),
		"")
	return tab, nil
}

// E6Levels measures multi-level anonymization cost versus the number of
// privacy levels N.
func E6Levels(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E6: anonymization time vs number of privacy levels (base k=10, doubling)",
		"levels N", "RGE mean", "RPLE mean", "region segs", "successes")
	for _, n := range []int{1, 2, 3, 4} {
		var tRGE, tRPLE, size metrics.Stats
		succ := 0
		users := env.SampleUsers(env.Opts.Trials, fmt.Sprintf("e6/%d", n))
		prof := uniformProfile(n, 10)
		ks := env.keysFor("e6", n)
		for _, u := range users {
			req := cloak.Request{UserSegment: u, Profile: prof, Keys: ks}
			start := time.Now()
			crG, _, errG := env.RGE.Anonymize(req)
			dG := time.Since(start)
			start = time.Now()
			_, _, errP := env.RPLE.Anonymize(req)
			dP := time.Since(start)
			if errG != nil || errP != nil {
				continue
			}
			succ++
			tRGE.AddDuration(dG)
			tRPLE.AddDuration(dP)
			size.Add(float64(len(crG.Segments)))
		}
		tab.AddRow(
			fmt.Sprintf("%d", n+1), // including L0
			meanDuration(tRGE),
			meanDuration(tRPLE),
			meanOf("%.1f", size),
			fmt.Sprintf("%d/%d", succ, len(users)),
		)
	}
	return tab, nil
}

// E7Deanonymization measures the de-anonymization cost of peeling 1..N
// levels off a 3-keyed-level cloak.
func E7Deanonymization(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E7: de-anonymization time vs levels peeled (3-level cloak, base k=10)",
		"peel to", "RGE mean", "RPLE mean", "segments left", "successes")
	const n = 3
	prof := uniformProfile(n, 10)
	ks := env.keysFor("e7", n)
	users := env.SampleUsers(env.Opts.Trials, "e7")

	type sample struct {
		crG, crP *cloak.CloakedRegion
	}
	var samples []sample
	for _, u := range users {
		req := cloak.Request{UserSegment: u, Profile: prof, Keys: ks}
		crG, _, errG := env.RGE.Anonymize(req)
		crP, _, errP := env.RPLE.Anonymize(req)
		if errG != nil || errP != nil {
			continue
		}
		samples = append(samples, sample{crG, crP})
	}
	if len(samples) == 0 {
		return nil, errors.New("bench: E7 produced no cloaks")
	}
	km := keyMap(ks)
	for toLevel := n - 1; toLevel >= 0; toLevel-- {
		var tRGE, tRPLE, left metrics.Stats
		for _, s := range samples {
			start := time.Now()
			outG, errG := env.RGE.Deanonymize(s.crG, km, toLevel)
			tRGE.AddDuration(time.Since(start))
			start = time.Now()
			_, errP := env.RPLE.Deanonymize(s.crP, km, toLevel)
			tRPLE.AddDuration(time.Since(start))
			if errG != nil || errP != nil {
				return nil, fmt.Errorf("bench: E7 dean failed: %v / %v", errG, errP)
			}
			left.Add(float64(len(outG.Segments)))
		}
		tab.AddRow(
			fmt.Sprintf("L%d", toLevel),
			meanDuration(tRGE),
			meanDuration(tRPLE),
			meanOf("%.1f", left),
			fmt.Sprintf("%d/%d", len(samples), len(users)),
		)
	}
	return tab, nil
}

// E8KSweep measures cloaking cost and region size as the k-anonymity
// requirement grows.
func E8KSweep(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E8: effect of delta_k (single level, unbounded tolerance)",
		"k", "RGE mean", "region segs", "extent m", "rel. anonymity", "successes")
	for _, k := range []int{10, 20, 40, 80, 160} {
		var t, size, extent, rel metrics.Stats
		users := env.SampleUsers(env.Opts.Trials, fmt.Sprintf("e8/%d", k))
		prof := uniformProfile(1, k)
		ks := env.keysFor("e8", 1)
		for _, u := range users {
			req := cloak.Request{UserSegment: u, Profile: prof, Keys: ks}
			start := time.Now()
			cr, tr, err := env.RGE.Anonymize(req)
			if err != nil {
				continue
			}
			t.AddDuration(time.Since(start))
			size.Add(float64(len(cr.Segments)))
			extent.Add(regionExtent(env, cr))
			rel.Add(float64(tr.UsersCovered[0]) / float64(k))
		}
		tab.AddRow(
			fmt.Sprintf("%d", k),
			meanDuration(t),
			meanOf("%.1f", size),
			meanOf("%.0f", extent),
			meanOf("%.2f", rel),
			fmt.Sprintf("%d/%d", t.N(), len(users)),
		)
	}
	return tab, nil
}

// E9Tolerance measures the success rate and achieved anonymity under
// tightening spatial tolerances (the sigma_s knob).
func E9Tolerance(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E9: effect of spatial tolerance sigma_s (k=40)",
		"sigma_s m", "success rate", "RGE mean", "region segs")
	const k = 40
	for _, sigma := range []float64{800, 1500, 3000, 6000, 0} {
		var t, size metrics.Stats
		succ := 0
		users := env.SampleUsers(env.Opts.Trials, fmt.Sprintf("e9/%.0f", sigma))
		prof := profile.Profile{Levels: []profile.Level{{K: k, L: k / 3, SigmaS: sigma}}}
		ks := env.keysFor("e9", 1)
		for _, u := range users {
			req := cloak.Request{UserSegment: u, Profile: prof, Keys: ks}
			start := time.Now()
			cr, _, err := env.RGE.Anonymize(req)
			if errors.Is(err, cloak.ErrCloakFailed) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("bench: E9: %w", err)
			}
			succ++
			t.AddDuration(time.Since(start))
			size.Add(float64(len(cr.Segments)))
		}
		label := fmt.Sprintf("%.0f", sigma)
		if sigma == 0 {
			label = "unbounded"
		}
		tab.AddRow(
			label,
			fmt.Sprintf("%.0f%%", 100*float64(succ)/float64(len(users))),
			meanDuration(t),
			meanOf("%.1f", size),
		)
	}
	return tab, nil
}

// regionExtent returns the bounding-box diagonal of a region in meters.
func regionExtent(env *Env, cr *cloak.CloakedRegion) float64 {
	var box geom.BBox
	for _, sid := range cr.Segments {
		box = box.Union(env.G.SegmentBounds(sid))
	}
	return box.Diagonal()
}
