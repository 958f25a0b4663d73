package main

import "encoding/json"

// benchmarkFile is BENCHMARK.json at the repository root: the contract the
// driver reads. It is generated from the tables in this package
// (`-describe`), and a test holds the checked-in file against them.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func describe() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDef{Name: w.name, Why: w.why})
	}
	return f
}

func describeJSON() ([]byte, error) {
	raw, err := json.MarshalIndent(describe(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}
