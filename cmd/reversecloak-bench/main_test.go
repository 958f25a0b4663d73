package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/reversecloak/reversecloak/internal/bench"
)

// TestRunWritesEveryExperiment runs the harness at the paper's scale with
// one trial per cell and checks the JSON it writes: one entry per
// experiment, E5 through E15, in order.
func TestRunWritesEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the atlanta environment")
	}
	out := filepath.Join(t.TempDir(), "experiments.json")
	if err := run(bench.Options{Seed: []byte("reversecloak-bench-seed-2017-001"), Trials: 1}, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var set bench.ResultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		t.Fatalf("parsing %s: %v", out, err)
	}
	if set.Trials != 1 {
		t.Errorf("trials = %d, want 1", set.Trials)
	}
	if len(set.Experiments) != 11 {
		t.Fatalf("%d experiments, want E5..E15", len(set.Experiments))
	}
	for i, ex := range set.Experiments {
		if want := fmt.Sprintf("E%d", i+5); ex.ID != want {
			t.Errorf("experiment %d is %s, want %s", i, ex.ID, want)
		}
		if len(ex.Rows) == 0 {
			t.Errorf("%s has no rows", ex.ID)
		}
	}
}
