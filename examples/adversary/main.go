// Command adversary plays the attacker against ReverseCloak: it receives a
// published cloaked region, knows the road network, the algorithm, every
// public metadata field — everything except the keys — and tries to reverse
// the cloak. The demo shows (1) guessed keys either fail outright or
// recover a wrong segment, and (2) the number of removal chains consistent
// with random keys, i.e. the ambiguity that keyless reversal faces.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"

	rc "github.com/reversecloak/reversecloak"
)

// -short shrinks the attacks so CI can run the example quickly.
var short = flag.Bool("short", false, "fewer guesses and enumerations for CI")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adversary:", err)
		os.Exit(1)
	}
}

func run() error {
	g, err := rc.GridMap(12, 12, 100)
	if err != nil {
		return fmt.Errorf("generating map: %w", err)
	}
	engine, err := rc.NewRGEEngine(g, func(rc.SegmentID) int { return 1 })
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}

	prof := rc.Profile{Levels: []rc.Level{{K: 12, L: 12}}}
	ks, err := rc.AutoGenerateKeys(1)
	if err != nil {
		return err
	}
	user := rc.SegmentID(130)
	region, _, err := engine.Anonymize(rc.Request{UserSegment: user, Profile: prof, Keys: ks.All()})
	if err != nil {
		return fmt.Errorf("anonymizing: %w", err)
	}
	fmt.Printf("published: %d-segment region, level metadata steps=%d salt=%d\n",
		len(region.Segments), region.Levels[0].Steps, region.Levels[0].Salt)
	fmt.Printf("secret: user is on segment %d\n\n", user)

	guesses, enums, chainCap := 20, 3, 512
	if *short {
		guesses, enums, chainCap = 5, 1, 128
	}

	// Attack 1: brute-force guessed keys.
	fmt.Printf("attack 1: de-anonymize under %d guessed keys\n", guesses)
	hits, errs := 0, 0
	for i := 0; i < guesses; i++ {
		guess := make([]byte, 32)
		if _, err := rand.Read(guess); err != nil {
			return err
		}
		got, err := engine.Deanonymize(region, map[int][]byte{1: guess}, 0)
		if err != nil {
			errs++
			continue
		}
		if len(got.Segments) == 1 && got.Segments[0] == user {
			hits++
		}
	}
	fmt.Printf("  %d/%d guesses failed to produce any chain, %d/%d found the true segment\n\n",
		errs, guesses, hits, guesses)

	// Attack 2: enumerate every removal chain consistent with a random key.
	fmt.Println("attack 2: chain ambiguity under random keys")
	for i := 0; i < enums; i++ {
		guess := make([]byte, 32)
		if _, err := rand.Read(guess); err != nil {
			return err
		}
		chains, err := rc.EnumerateReversals(g, rc.RGE, nil,
			region.Segments, region.Levels[0].Steps, guess, 1,
			region.Levels[0].Salt, region.Levels[0].SigmaS, chainCap)
		if err != nil {
			return fmt.Errorf("enumerating: %w", err)
		}
		fmt.Printf("  random key %d: %d consistent chain(s) — ", i+1, len(chains))
		switch {
		case len(chains) == 0:
			fmt.Println("key rejected outright")
		default:
			fmt.Println("no way to tell which (if any) is real without the key")
		}
	}

	// Ground truth: the real key deterministically yields the one true chain.
	full, err := ks.Grant(0)
	if err != nil {
		return err
	}
	l0, err := engine.Deanonymize(region, full, 0)
	if err != nil {
		return fmt.Errorf("true-key dean: %w", err)
	}
	fmt.Printf("\nwith the real key: recovered segment %d (correct: %v)\n",
		l0.Segments[0], l0.Segments[0] == user)
	return nil
}
