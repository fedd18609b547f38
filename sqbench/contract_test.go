package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark emits, with the same units and order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(e2eNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(e2eNames))
	}
	for i, e := range e2eNames {
		if b.EndToEnd[i] != (m{e.name, e.unit}) {
			t.Errorf("end_to_end[%d] = %v, benchmark emits %s in %s", i, b.EndToEnd[i], e.name, e.unit)
		}
	}
	if len(b.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layerCatalog))
	}
	for i, l := range layerCatalog {
		if b.PerLayer[i] != (m{l.name, l.unit}) {
			t.Errorf("per_layer[%d] = %v, benchmark emits %s in %s", i, b.PerLayer[i], l.name, l.unit)
		}
	}
}
