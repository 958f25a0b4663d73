package anonymizer

// One-off generator for testdata/v3store (run manually, never in CI):
//
//	GEN_V3_FIXTURE=1 go test ./internal/anonymizer/ -run TestGenerateV3Fixture -count=1
//
// It cuts regions on the CLI's default map (preset "small", default seed,
// 2000 cars) so `anonymizer dump` can recompute every reduction, and
// writes a current-layout store with stored-key records, part compacted
// into snapshots and part still in the log. The keys are random, so a
// regenerated fixture needs its golden refreshed:
//
//	go run ./cmd/anonymizer dump -data-dir <copy of testdata/v3store> \
//	    >internal/anonymizer/testdata/v3store.dump
//
// The checked-in bytes predate the generator's current form (they were
// written under a version-2 META, same file layout); regenerate only when
// the format changes on purpose.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

func TestGenerateV3Fixture(t *testing.T) {
	if os.Getenv("GEN_V3_FIXTURE") == "" {
		t.Skip("fixture generator; set GEN_V3_FIXTURE=1 to run")
	}
	seed := []byte("reversecloak-default-map-seed-01")
	g, err := mapgen.Small(seed)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := trace.New(g, trace.Config{Cars: 2000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := cloak.NewEngine(g, sim.UsersOn, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join("testdata", "v3store")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDurableStore(dir,
		WithDurableShards(4), WithSnapshotEvery(8), WithGCInterval(0))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}, {K: 14, L: 6}}}
	var ids []string
	for len(ids) < 20 {
		user := roadnet.SegmentID(rng.Intn(g.NumSegments()))
		ks, err := keys.AutoGenerate(len(prof.Levels))
		if err != nil {
			t.Fatal(err)
		}
		region, _, err := engine.Anonymize(cloak.Request{
			UserSegment: user, Profile: prof, Keys: ks.All(),
		})
		if err != nil {
			continue // infeasible start segment; try another
		}
		policy, err := accessctl.NewPolicy(len(prof.Levels), len(prof.Levels))
		if err != nil {
			t.Fatal(err)
		}
		id, err := st.Register(NewRegistration(region, ks, policy))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	requesters := []string{"alice", "bob", "carol"}
	for i, id := range ids {
		if i%3 == 0 {
			if err := st.SetTrust(id, requesters[i%len(requesters)], 1+i%2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Deregister(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("wrote %s: %d registrations (one deregistered)", dir, len(ids))
}
