package reversecloak_test

import (
	"crypto/sha256"
	"fmt"

	rc "github.com/reversecloak/reversecloak"
)

// Example_quickstart is the smallest end-to-end program: build a map and a
// 2 000-car workload, cloak the user on segment 100 at the default three
// privacy levels, then peel the levels off one key at a time, down to the
// user's exact segment.
func Example_quickstart() {
	if err := quickstart(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// map: 400 junctions, 527 segments; workload: 2000 cars
	// published: L3, 20 segments, contains segment 100: true
	// with keys [3]: L2, 12 segments
	// with keys [2 3]: L1, 4 segments
	// with keys [1 2 3]: L0 = [100]
}

func quickstart() error {
	seed := []byte("reversecloak-quickstart-seed-001")
	g, err := rc.SmallMap(seed)
	if err != nil {
		return err
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: 2000, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("map: %d junctions, %d segments; workload: %d cars\n",
		g.NumJunctions(), g.NumSegments(), sim.NumCars())
	engine, err := rc.NewRGEEngine(g, sim.UsersOn)
	if err != nil {
		return err
	}

	prof := rc.DefaultProfile()
	keys := fixedKeys("quickstart", len(prof.Levels))
	user := rc.SegmentID(100)
	region, _, err := engine.Anonymize(rc.Request{UserSegment: user, Profile: prof, Keys: keys})
	if err != nil {
		return err
	}
	fmt.Printf("published: L%d, %d segments, contains segment %d: %v\n",
		region.PrivacyLevel(), len(region.Segments), user, region.Contains(user))

	// Level lv's key peels level lv off: a grant of keys lv..3 reduces the
	// region to level lv-1.
	grant := map[int][]byte{}
	var held []int
	for lv := region.PrivacyLevel(); lv > 0; lv-- {
		grant[lv] = keys[lv-1]
		held = append([]int{lv}, held...)
		finer, err := engine.Deanonymize(region, grant, lv-1)
		if err != nil {
			return err
		}
		if finer.PrivacyLevel() > 0 {
			fmt.Printf("with keys %v: L%d, %d segments\n", held, finer.PrivacyLevel(), len(finer.Segments))
		} else {
			fmt.Printf("with keys %v: L0 = %v\n", held, finer.Segments)
		}
	}
	return nil
}

// fixedKeys derives n level keys from a label, so an example prints the
// same regions on every run; a deployment draws them with AutoGenerateKeys.
func fixedKeys(label string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s key %d", label, i+1)))
		out[i] = sum[:]
	}
	return out
}
