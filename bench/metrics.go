package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json a run reports against. That file is
// the one list of metric names and units: a run computes its figures and
// reports each where the file lists it — the end-to-end ones from the untraced
// run, the per-layer ones from the traced run.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(root string) (manifest, error) {
	var mf manifest
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return mf, err
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return mf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return mf, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects values against one of the manifest's lists. set keeps a
// value only under a name the list holds, so nothing is reported unlisted;
// missing names what the list holds and the run never set.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
}

func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
