package reversecloak_test

import (
	"testing"
	"time"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/temporal"
)

// TestIntegrationFullPipeline exercises the complete system across every
// subsystem boundary: synthetic map -> workload -> server-side cloaking
// (both algorithms) -> access-controlled key distribution -> client-side
// spatio-temporal de-anonymization.
func TestIntegrationFullPipeline(t *testing.T) {
	seedVal := []byte("integration-test-seed-0123456789")

	// Substrate: map and workload.
	g, err := mapgen.Generate(mapgen.Config{Junctions: 500, Segments: 660, Seed: seedVal})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: 1500, Seed: seedVal})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}

	// Engines for both algorithms over the same substrate.
	rge, err := rc.NewRGEEngine(g, sim.UsersOn)
	if err != nil {
		t.Fatalf("rge: %v", err)
	}
	rple, err := rc.NewRPLEEngine(g, sim.UsersOn, 0)
	if err != nil {
		t.Fatalf("rple: %v", err)
	}

	// Trusted anonymization server.
	srv, err := rc.NewServer(map[rc.Algorithm]*rc.Engine{rc.RGE: rge, rc.RPLE: rple})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	for _, algo := range []string{"RGE", "RPLE"} {
		t.Run(algo, func(t *testing.T) {
			owner, err := rc.DialServer(addr.String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer func() { _ = owner.Close() }()

			// The owner cloaks her position and grants a requester level 0.
			user := rc.SegmentID(321)
			prof := rc.Profile{Levels: []rc.Level{
				{K: 6, L: 3},
				{K: 14, L: 6},
			}}
			regID, region, err := owner.Anonymize(user, prof, algo)
			if err != nil {
				t.Fatalf("anonymize: %v", err)
			}
			if err := owner.SetTrust(regID, "responder", 0); err != nil {
				t.Fatalf("set trust: %v", err)
			}

			// The requester fetches region + keys and peels locally.
			req, err := rc.DialServer(addr.String())
			if err != nil {
				t.Fatalf("requester dial: %v", err)
			}
			defer func() { _ = req.Close() }()
			fetched, levels, err := req.GetRegion(regID)
			if err != nil {
				t.Fatalf("get region: %v", err)
			}
			if levels != 2 {
				t.Fatalf("levels = %d", levels)
			}
			grant, err := req.RequestKeys(regID, "responder")
			if err != nil {
				t.Fatalf("request keys: %v", err)
			}
			engine := rge
			if algo == "RPLE" {
				engine = rple
			}
			l0, err := engine.Deanonymize(fetched, grant, 0)
			if err != nil {
				t.Fatalf("dean: %v", err)
			}
			if len(l0.Segments) != 1 || l0.Segments[0] != user {
				t.Fatalf("recovered %v, want [%d]", l0.Segments, user)
			}
			if len(region.Segments) <= 1 {
				t.Fatal("published region should be larger than one segment")
			}
		})
	}
}

// TestIntegrationSpatioTemporal cloaks both dimensions of a report and
// recovers them with the full key set.
func TestIntegrationSpatioTemporal(t *testing.T) {
	g, err := rc.GridMap(12, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := rc.NewRGEEngine(g, func(rc.SegmentID) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}

	spatialKeys, err := rc.AutoGenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	tKeys, err := rc.AutoGenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := tKeys.Level(1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := tKeys.Level(2)
	if err != nil {
		t.Fatal(err)
	}
	tcloak, err := temporal.New([]temporal.Level{
		{Key: k1, SigmaT: time.Minute},
		{Key: k2, SigmaT: 10 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cloak where and when.
	user := rc.SegmentID(100)
	at := time.Date(2017, 6, 5, 9, 30, 42, 0, time.UTC)
	prof := rc.Profile{Levels: []rc.Level{{K: 6, L: 3}, {K: 14, L: 6}}}
	region, _, err := engine.Anonymize(rc.Request{UserSegment: user, Profile: prof, Keys: spatialKeys.All()})
	if err != nil {
		t.Fatalf("spatial: %v", err)
	}
	cloakedAt := tcloak.Anonymize(at)

	// Recover both with full grants.
	sGrant, err := spatialKeys.Grant(0)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := engine.Deanonymize(region, sGrant, 0)
	if err != nil {
		t.Fatalf("spatial dean: %v", err)
	}
	tGrant, err := tKeys.Grant(0)
	if err != nil {
		t.Fatal(err)
	}
	when, err := tcloak.Deanonymize(cloakedAt, tGrant, 0)
	if err != nil {
		t.Fatalf("temporal dean: %v", err)
	}
	if l0.Segments[0] != user {
		t.Errorf("where = %v", l0.Segments)
	}
	if !when.Equal(at) {
		t.Errorf("when = %v, want %v", when, at)
	}
	// The cloaked report was genuinely coarser.
	if len(region.Segments) <= 1 {
		t.Error("region not coarsened")
	}
	if cloakedAt.Equal(at) {
		t.Log("temporal cloak left instant unchanged (possible, rare)")
	}
}
