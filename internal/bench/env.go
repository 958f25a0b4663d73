// Package bench is the experiment harness: it regenerates the paper's
// evaluation artifacts (the list is Experiments) as printed tables, on the
// paper's setup — the synthetic Atlanta NW road network (6979 junctions,
// 9187 segments) with 10 000 cars placed by Gaussian distribution.
//
// Experiments are deterministic given Options.Seed.
package bench

import (
	"fmt"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/metrics"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// Options configures the harness.
type Options struct {
	// Seed drives every random choice. Required.
	Seed []byte
	// Trials is the number of sampled users per table cell. Default 15.
	Trials int
}

// The paper's workload density: 10 000 cars on Atlanta NW's 9 187
// segments.
const paperCars, paperSegments = 10000, 9187

// Env is the shared experimental environment: one network, one workload,
// one engine per algorithm.
type Env struct {
	Opts Options
	G    *roadnet.Graph
	Sim  *trace.Simulation
	RGE  *cloak.Engine
	RPLE *cloak.Engine
	Pre  *cloak.Preassignment
	// PreBuildTime is how long the RPLE pre-assignment took (part of E5).
	PreBuildTime time.Duration
}

// NewEnv builds the paper's environment: mapgen.AtlantaNW with 10 000
// cars, the map `serve -map atlanta` and the benchmark use.
func NewEnv(opts Options) (*Env, error) {
	if len(opts.Seed) == 0 {
		return nil, fmt.Errorf("bench: seed is required")
	}
	g, err := mapgen.AtlantaNW(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: map: %w", err)
	}
	return newEnv(g, opts)
}

// newEnv builds the environment on g, with cars at the paper's density.
func newEnv(g *roadnet.Graph, opts Options) (*Env, error) {
	if opts.Trials == 0 {
		opts.Trials = 15
	}
	cars := g.NumSegments() * paperCars / paperSegments
	sim, err := trace.New(g, trace.Config{Cars: cars, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: workload: %w", err)
	}
	density := cloak.DensityFunc(sim.UsersOn)

	rge, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		return nil, fmt.Errorf("bench: RGE engine: %w", err)
	}
	start := time.Now()
	pre, err := cloak.NewPreassignment(g, cloak.DefaultTransitionListLength)
	if err != nil {
		return nil, fmt.Errorf("bench: preassignment: %w", err)
	}
	preTime := time.Since(start)
	rple, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RPLE, Pre: pre})
	if err != nil {
		return nil, fmt.Errorf("bench: RPLE engine: %w", err)
	}
	return &Env{
		Opts:         opts,
		G:            g,
		Sim:          sim,
		RGE:          rge,
		RPLE:         rple,
		Pre:          pre,
		PreBuildTime: preTime,
	}, nil
}

// SampleUsers returns `n` deterministic sample user segments, biased toward
// occupied segments so cloaking requests resemble real requests.
func (e *Env) SampleUsers(n int, label string) []roadnet.SegmentID {
	cur := prng.NewCursor(prng.New(e.Opts.Seed, "bench/users/"+label))
	out := make([]roadnet.SegmentID, 0, n)
	for len(out) < n {
		sid := roadnet.SegmentID(cur.Intn(e.G.NumSegments()))
		out = append(out, sid)
	}
	return out
}

// Engine returns the engine for an algorithm.
func (e *Env) Engine(a cloak.Algorithm) *cloak.Engine {
	if a == cloak.RPLE {
		return e.RPLE
	}
	return e.RGE
}

// uniformProfile builds an n-level profile with the harness's standard
// shape: k doubling from baseK, l = k/3 (at least 2), unbounded tolerance.
func uniformProfile(n, baseK int) profile.Profile {
	p := profile.Profile{Levels: make([]profile.Level, n)}
	k := baseK
	for i := range p.Levels {
		l := k / 3
		if l < 2 {
			l = 2
		}
		p.Levels[i] = profile.Level{K: k, L: l}
		k *= 2
	}
	return p
}

// keysFor deterministically derives level keys for a trial.
func (e *Env) keysFor(label string, levels int) [][]byte {
	out := make([][]byte, levels)
	for i := range out {
		out[i] = prng.Derive(e.Opts.Seed, fmt.Sprintf("bench/key/%s/%d", label, i))
	}
	return out
}

// keyMap converts level keys into the map Deanonymize takes.
func keyMap(ks [][]byte) map[int][]byte {
	out := make(map[int][]byte, len(ks))
	for i, k := range ks {
		out[i+1] = k
	}
	return out
}

// noSamples is what a mean over no samples renders as, so an empty cell
// never reads as a zero-cost measurement.
const noSamples = "-"

// meanDuration renders the mean of duration samples (in seconds).
func meanDuration(s metrics.Stats) string {
	if s.N() == 0 {
		return noSamples
	}
	return metrics.FormatDuration(time.Duration(s.Mean() * float64(time.Second)))
}

// meanOf renders the mean of s with format.
func meanOf(format string, s metrics.Stats) string {
	if s.N() == 0 {
		return noSamples
	}
	return fmt.Sprintf(format, s.Mean())
}
