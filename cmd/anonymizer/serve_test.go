package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

const serveSeed = "reversecloak-default-map-seed-01"

// anonymizeAll runs n seeded requests (default profile, per-request keys)
// and returns each published region, or its error, as bytes.
func anonymizeAll(t *testing.T, e *rc.Engine, n int) []string {
	t.Helper()
	cur := prng.NewCursor(prng.New([]byte(serveSeed), "serve-test/users"))
	p := rc.DefaultProfile()
	out := make([]string, n)
	for i := range out {
		ks := make([][]byte, len(p.Levels))
		for l := range ks {
			ks[l] = prng.Derive([]byte(serveSeed), fmt.Sprintf("serve-test/req%d/level%d", i, l+1))
		}
		user := rc.SegmentID(cur.Intn(e.Graph().NumSegments()))
		cr, _, err := e.Anonymize(rc.Request{UserSegment: user, Profile: p, Keys: ks})
		if err != nil {
			out[i] = "error: " + err.Error()
			continue
		}
		b, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestBuildEnginesMatchesSerial: the engines serve builds, with RPLE's
// tables made beside the simulation, publish exactly what the same engines
// built one after another publish. -rple-list 0 is the default T.
func TestBuildEnginesMatchesSerial(t *testing.T) {
	const cars = 2000
	for _, rpleT := range []int{0, 6} {
		g, engines, err := buildEngines("small", serveSeed, cars, rpleT)
		if err != nil {
			t.Fatal(err)
		}
		serialG, err := mapgen.Preset("small", []byte(serveSeed))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := rc.NewSimulation(serialG, rc.WorkloadConfig{Cars: cars, Seed: []byte(serveSeed)})
		if err != nil {
			t.Fatal(err)
		}
		rge, err := rc.NewRGEEngine(serialG, sim.UsersOn)
		if err != nil {
			t.Fatal(err)
		}
		rple, err := rc.NewRPLEEngine(serialG, sim.UsersOn, rpleT)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumSegments() != serialG.NumSegments() {
			t.Fatalf("T=%d: map has %d segments, serial %d", rpleT, g.NumSegments(), serialG.NumSegments())
		}
		for algo, serial := range map[rc.Algorithm]*rc.Engine{rc.RGE: rge, rc.RPLE: rple} {
			got, want := anonymizeAll(t, engines[algo], 20), anonymizeAll(t, serial, 20)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("T=%d %v request %d:\n got %s\nwant %s", rpleT, algo, i, got[i], want[i])
				}
			}
		}
	}
}

// stubPreassignment replaces the table builder for one test: it records the
// T it was asked for, sleeps so a missing join would return first, and marks
// its completion.
func stubPreassignment(t *testing.T, fail bool) (gotT *atomic.Int64, done *atomic.Bool) {
	t.Helper()
	gotT, done = new(atomic.Int64), new(atomic.Bool)
	orig := newPreassignment
	t.Cleanup(func() { newPreassignment = orig })
	newPreassignment = func(g *roadnet.Graph, n int) (*cloak.Preassignment, error) {
		gotT.Store(int64(n))
		time.Sleep(50 * time.Millisecond)
		defer done.Store(true)
		if fail {
			return nil, errors.New("tables refused")
		}
		return orig(g, n)
	}
	return gotT, done
}

func TestBuildEnginesDefaultListLength(t *testing.T) {
	gotT, done := stubPreassignment(t, false)
	if _, _, err := buildEngines("small", serveSeed, 100, 0); err != nil {
		t.Fatal(err)
	}
	if !done.Load() || gotT.Load() != cloak.DefaultTransitionListLength {
		t.Fatalf("tables built with T=%d (done %v), want the default %d",
			gotT.Load(), done.Load(), cloak.DefaultTransitionListLength)
	}
}

// TestBuildEnginesJoinsOnError: an error from either side comes back only
// after the table goroutine has finished.
func TestBuildEnginesJoinsOnError(t *testing.T) {
	_, done := stubPreassignment(t, false)
	_, _, err := buildEngines("small", serveSeed, -1, 16)
	if err == nil || !strings.Contains(err.Error(), "generating workload") {
		t.Fatalf("negative cars: err = %v, want the simulation's error", err)
	}
	if !done.Load() {
		t.Fatal("simulation error returned before the table goroutine was joined")
	}

	_, done = stubPreassignment(t, true)
	_, _, err = buildEngines("small", serveSeed, 100, 16)
	if err == nil || !strings.Contains(err.Error(), "tables refused") {
		t.Fatalf("failing tables: err = %v, want the table builder's error", err)
	}
	if !done.Load() {
		t.Fatal("table error returned before the table goroutine finished")
	}
}

// BenchmarkStart is serve's start on the atlanta map and on one four times
// its size: map generation, the workload simulation and both engines (RPLE's
// tables built beside the simulation).
func BenchmarkStart(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("atlanta-%dx", scale), func(b *testing.B) {
			seed := []byte(serveSeed)
			for i := 0; i < b.N; i++ {
				g, err := mapgen.Generate(mapgen.Config{
					Junctions: scale * 6979, Segments: scale * 9187, Spacing: 150, Jitter: 0.3, Seed: seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := enginesFor(g, seed, scale*10000, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
