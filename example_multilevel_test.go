package reversecloak_test

import (
	"fmt"

	rc "github.com/reversecloak/reversecloak"
)

// Example_multilevelAccess runs the paper's access-controlled scenario over
// the trusted anonymization server: a data owner cloaks her position once,
// and three requesters with different trust degrees (an emergency doctor,
// a taxi dispatcher and an advertiser) each reduce the same published
// region as far as their keys reach. The server draws its own keys, so the
// example prints only what holds for any keys.
func Example_multilevelAccess() {
	if err := multilevelAccess(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// owner: the server answers ping
	// owner: registration r1 cloaks segment 150 at L3 (region contains it: true)
	// emergency-doctor holds 3 key(s) -> L0 = [150]
	// taxi-dispatcher  holds 2 key(s) -> L1
	// advertiser       holds 0 key(s) -> L3
}

func multilevelAccess() error {
	seed := []byte("reversecloak-multilevel-access-1")
	g, err := rc.SmallMap(seed)
	if err != nil {
		return err
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: 2500, Seed: seed})
	if err != nil {
		return err
	}
	engine, err := rc.NewRGEEngine(g, sim.UsersOn)
	if err != nil {
		return err
	}

	// The trusted anonymization server holds the map, densities and keys.
	srv, err := rc.NewServer(map[rc.Algorithm]*rc.Engine{rc.RGE: engine})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	// Data owner: cloak segment 150 and grant each requester a level.
	owner, err := rc.DialServer(addr.String())
	if err != nil {
		return err
	}
	defer func() { _ = owner.Close() }()
	if err := owner.Ping(); err != nil {
		return err
	}
	fmt.Println("owner: the server answers ping")
	user := rc.SegmentID(150)
	regionID, region, err := owner.Anonymize(user, rc.DefaultProfile(), "RGE")
	if err != nil {
		return err
	}
	fmt.Printf("owner: registration %s cloaks segment %d at L%d (region contains it: %v)\n",
		regionID, user, region.PrivacyLevel(), region.Contains(user))
	requesters := []struct {
		name  string
		trust int // the lowest level the requester may reach
	}{
		{"emergency-doctor", 0},
		{"taxi-dispatcher", 1},
		{"advertiser", 3},
	}
	for _, r := range requesters {
		if err := owner.SetTrust(regionID, r.name, r.trust); err != nil {
			return err
		}
	}

	// Requesters fetch the same public region; their keys differ, and
	// de-anonymization runs on their side.
	for _, r := range requesters {
		finer, keys, err := reduceAsRequester(addr.String(), regionID, r.name, engine)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Printf("%-16s holds %d key(s) -> L%d", r.name, len(keys), finer.PrivacyLevel())
		if finer.PrivacyLevel() == 0 {
			fmt.Printf(" = %v", finer.Segments)
		}
		fmt.Println()
	}
	return nil
}

// reduceAsRequester fetches a registration's public region and the
// requester's keys over its own connection, then peels off every level
// the keys cover.
func reduceAsRequester(addr, regionID, requester string, engine *rc.Engine) (*rc.CloakedRegion, map[int][]byte, error) {
	conn, err := rc.DialServer(addr)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = conn.Close() }()
	published, level, err := conn.GetRegion(regionID)
	if err != nil {
		return nil, nil, err
	}
	keys, err := conn.RequestKeys(regionID, requester)
	if err != nil {
		return nil, nil, err
	}
	for level > 0 && keys[level] != nil {
		level--
	}
	finer, err := engine.Deanonymize(published, keys, level)
	return finer, keys, err
}
