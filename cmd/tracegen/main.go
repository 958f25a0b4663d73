// Command tracegen generates a GTMobiSim-style mobile workload over a road
// network and writes the per-segment occupancy histogram as JSON: "10,000
// cars randomly generated along the roads based on Gaussian distribution
// ... route selection is based on shortest path routing."
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// output is the serialized workload snapshot.
type output struct {
	Cars      int   `json:"cars"`
	Segments  int   `json:"segments"`
	Steps     int   `json:"steps"`
	Occupancy []int `json:"occupancy"`
}

func main() {
	mapFile := flag.String("map", "", "road network JSON (default: built-in small preset)")
	cars := flag.Int("cars", 10000, "number of cars (paper preset: 10000)")
	hotspots := flag.Int("hotspots", 5, "Gaussian mixture components")
	steps := flag.Int("steps", 0, "simulation steps of 10s each before the snapshot (requires routing)")
	seedStr := flag.String("seed", "reversecloak-default-trace-seed1", "generation seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if err := run(*mapFile, *cars, *hotspots, *steps, *seedStr, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(mapFile string, cars, hotspots, steps int, seedStr, out string) error {
	seed := []byte(seedStr)
	var (
		g   *rc.Graph
		err error
	)
	if mapFile == "" {
		g, err = rc.SmallMap(seed)
	} else {
		f, ferr := os.Open(mapFile)
		if ferr != nil {
			return fmt.Errorf("opening map: %w", ferr)
		}
		defer func() { _ = f.Close() }()
		g, err = roadnet.ReadJSON(f)
	}
	if err != nil {
		return fmt.Errorf("loading map: %w", err)
	}

	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{
		Cars:     cars,
		Hotspots: hotspots,
		Routing:  steps > 0,
		Seed:     seed,
	})
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}
	for i := 0; i < steps; i++ {
		if err := sim.Step(10); err != nil {
			return fmt.Errorf("stepping: %w", err)
		}
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", out, err)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(output{
		Cars:      sim.NumCars(),
		Segments:  g.NumSegments(),
		Steps:     steps,
		Occupancy: sim.Counts(),
	}); err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d cars over %d segments\n", sim.NumCars(), g.NumSegments())
	return nil
}
