package reversecloak_test

import (
	"fmt"

	rc "github.com/reversecloak/reversecloak"
)

// Example_fleetMonitoring cloaks a moving vehicle every tick with RPLE: a
// routed courier fleet reports its positions, the operations center may
// reduce each report to level 1, and the customer-facing tracker sees only
// the level-2 region. Each tick re-anonymizes against the fleet's live
// per-segment densities under fresh keys, and whoever holds both keys of
// the last report recovers the vehicle's segment.
func Example_fleetMonitoring() {
	if err := fleetMonitoring(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// fleet of 600 vehicles on a 480-segment network (RPLE cloaking)
	// t=  0s vehicle 7 on segment 102 | customer sees 16 segments | ops sees 10 segments
	// t= 30s vehicle 7 on segment 138 | customer sees 10 segments | ops sees  6 segments
	// t= 60s vehicle 7 on segment 83  | customer sees 15 segments | ops sees  9 segments
	// t= 90s vehicle 7 on segment 145 | customer sees 10 segments | ops sees  4 segments
	// t=120s vehicle 7 on segment 269 | customer sees 14 segments | ops sees  5 segments
	// both keys of the last report: L0 = [269]
}

func fleetMonitoring() error {
	seed := []byte("reversecloak-fleet-monitoring-01")
	g, err := rc.GridMap(16, 16, 120)
	if err != nil {
		return err
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: 600, Routing: true, Seed: seed})
	if err != nil {
		return err
	}
	engine, err := rc.NewRPLEEngine(g, sim.UsersOn, 0)
	if err != nil {
		return err
	}
	fmt.Printf("fleet of %d vehicles on a %d-segment network (RPLE cloaking)\n",
		sim.NumCars(), g.NumSegments())

	prof := rc.Profile{Levels: []rc.Level{
		{K: 8, L: 4, SigmaS: 1200},  // L1: operations center
		{K: 20, L: 8, SigmaS: 2400}, // L2: customer tracker
	}}
	const vehicle = 7
	var (
		region *rc.CloakedRegion
		keys   [][]byte
	)
	for tick := 0; tick < 5; tick++ {
		if tick > 0 {
			if err := sim.Step(30); err != nil {
				return err
			}
		}
		car, err := sim.Car(vehicle)
		if err != nil {
			return err
		}
		// Fresh keys per report: an old report stays reducible only by
		// whoever kept its keys.
		keys = fixedKeys(fmt.Sprintf("fleet tick %d", tick), len(prof.Levels))
		region, _, err = engine.Anonymize(rc.Request{UserSegment: car.Segment, Profile: prof, Keys: keys})
		if err != nil {
			return err
		}
		ops, err := engine.Deanonymize(region, map[int][]byte{2: keys[1]}, 1)
		if err != nil {
			return err
		}
		fmt.Printf("t=%3.0fs vehicle %d on segment %-4d| customer sees %2d segments | ops sees %2d segments\n",
			sim.Time(), vehicle, car.Segment, len(region.Segments), len(ops.Segments))
	}

	l0, err := engine.Deanonymize(region, map[int][]byte{1: keys[0], 2: keys[1]}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("both keys of the last report: L0 = %v\n", l0.Segments)
	return nil
}
