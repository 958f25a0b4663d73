// Command reversecloak-bench regenerates the paper's evaluation artifacts:
// the experiment tables E5..E15, on the paper's setup (the synthetic
// Atlanta NW map, 6979 junctions / 9187 segments, with 10 000 cars).
// `make experiments` writes their structured form to EXPERIMENTS.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/reversecloak/reversecloak/internal/bench"
)

func main() {
	var (
		seedStr = flag.String("seed", "reversecloak-bench-seed-2017-001", "experiment seed")
		jsonOut = flag.String("json", "", "also write machine-readable results to this file")
	)
	flag.Parse()
	if err := run([]byte(*seedStr), *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "reversecloak-bench:", err)
		os.Exit(1)
	}
}

func run(seed []byte, jsonOut string) error {
	opts := bench.Options{Seed: seed}
	if jsonOut == "" {
		return bench.RunAll(os.Stdout, nil, opts)
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	err = bench.RunAll(os.Stdout, f, opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Println("machine-readable results written to", jsonOut)
	}
	return err
}
