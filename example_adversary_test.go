package reversecloak_test

import (
	"fmt"

	rc "github.com/reversecloak/reversecloak"
)

// Example_adversary plays the attacker: it holds a published region, the
// road network, the algorithm and every public metadata field, but not the
// key. Guessed keys either fail outright or recover a wrong segment, and
// enumerating the removal chains consistent with a guessed key shows the
// ambiguity a keyless reversal faces. The real key recovers the user.
func Example_adversary() {
	if err := adversary(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// published: 12-segment region, level metadata steps=11 salt=0
	// secret: user is on segment 130
	// attack 1: 20/20 guessed keys produced no chain, 0/20 found the true segment
	// attack 2: guessed key 1 is consistent with 0 chain(s)
	// attack 2: guessed key 2 is consistent with 0 chain(s)
	// attack 2: guessed key 3 is consistent with 0 chain(s)
	// with the real key: L0 = [130]
}

func adversary() error {
	g, err := rc.GridMap(12, 12, 100)
	if err != nil {
		return err
	}
	engine, err := rc.NewRGEEngine(g, func(rc.SegmentID) int { return 1 })
	if err != nil {
		return err
	}
	key := fixedKeys("adversary", 1)
	user := rc.SegmentID(130)
	region, _, err := engine.Anonymize(rc.Request{
		UserSegment: user,
		Profile:     rc.Profile{Levels: []rc.Level{{K: 12, L: 12}}},
		Keys:        key,
	})
	if err != nil {
		return err
	}
	meta := region.Levels[0]
	fmt.Printf("published: %d-segment region, level metadata steps=%d salt=%d\n",
		len(region.Segments), meta.Steps, meta.Salt)
	fmt.Printf("secret: user is on segment %d\n", user)

	// Attack 1: de-anonymize under guessed keys.
	guesses := fixedKeys("adversary guess", 20)
	failed, hits := 0, 0
	for _, guess := range guesses {
		got, err := engine.Deanonymize(region, map[int][]byte{1: guess}, 0)
		switch {
		case err != nil:
			failed++
		case len(got.Segments) == 1 && got.Segments[0] == user:
			hits++
		}
	}
	fmt.Printf("attack 1: %d/%d guessed keys produced no chain, %d/%d found the true segment\n",
		failed, len(guesses), hits, len(guesses))

	// Attack 2: count the removal chains consistent with a guessed key.
	for i, guess := range fixedKeys("adversary enumeration", 3) {
		chains, err := rc.EnumerateReversals(g, rc.RGE, nil,
			region.Segments, meta.Steps, guess, 1, meta.Salt, meta.SigmaS, 512)
		if err != nil {
			return err
		}
		fmt.Printf("attack 2: guessed key %d is consistent with %d chain(s)\n", i+1, len(chains))
	}

	// The real key yields the one true chain.
	l0, err := engine.Deanonymize(region, map[int][]byte{1: key[0]}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("with the real key: L0 = %v\n", l0.Segments)
	return nil
}
