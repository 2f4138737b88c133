package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke mode checks
// against this program's own tables.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSmoke checks the benchmark itself, from the repository root:
// BENCHMARK.json names exactly the workloads and metrics this program
// reports; a short timed run of every workload, with one job kind's
// reference array deliberately wrong, prints every end-to-end metric with
// its unit and counts the wrong jobs as failed; and a short traced run of
// every workload prints every per-layer metric with its unit, fails no
// job and drops no trace event.
func runSmoke() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			return fmt.Errorf("BENCHMARK.json workload %d is %q (%q), the program's is %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	type def struct{ Name, Unit, Better string }
	same := func(kind string, file []def, prog []metricDef) error {
		if len(file) != len(prog) {
			return fmt.Errorf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(file), kind, len(prog))
		}
		for i, m := range prog {
			if file[i] != (def{m.Name, m.Unit, m.Better}) {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %v, the program's is %v", kind, i, file[i], m)
			}
		}
		return nil
	}
	var e2e, layer []def
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, def(m))
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, def(m))
	}
	if err := same("end_to_end", e2e, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", layer, perLayer); err != nil {
		return err
	}

	for i := range workloads {
		w := &workloads[i]
		rep, err := runWorkload(w, runOpts{seed: 1, dur: time.Second, corrupt: true})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := checkPrinted(rep, endToEnd); err != nil {
			return fmt.Errorf("%s timed run: %w", w.Name, err)
		}
		// The wrong reference belongs to the first job kind only.
		wantAll := len(w.Jobs) == 1
		if rep.correct || rep.failed == 0 || (wantAll && rep.failed != rep.attempted) || (!wantAll && rep.failed == rep.attempted) {
			return fmt.Errorf("%s: a wrong reference for %s gave %d failed of %d attempted (correct=%v)",
				w.Name, w.Jobs[0].Kernel, rep.failed, rep.attempted, rep.correct)
		}
		fmt.Printf("%s: wrong reference counted, failed_frac %.3f\n", w.Name, float64(rep.failed)/float64(rep.attempted))

		rep, err = runWorkload(w, runOpts{seed: 1, dur: time.Second, traced: true})
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		if err := checkPrinted(rep, perLayer); err != nil {
			return fmt.Errorf("%s traced run: %w", w.Name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.values["trace.drops"] != 0 {
			return fmt.Errorf("%s traced run: correct=%v, %d failed, %v trace drops (first failure: %v)",
				w.Name, rep.correct, rep.failed, rep.values["trace.drops"], rep.firstErr)
		}
		fmt.Printf("%s: traced run clean, %d jobs\n", w.Name, rep.attempted)
	}
	return nil
}

// checkPrinted prints the report and checks that every metric of defs
// appears by name with its unit, as a text line and in the JSON line.
func checkPrinted(rep *report, defs []metricDef) error {
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Attempted int `json:"attempted"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return fmt.Errorf("last line is not the JSON result: %w", err)
	}
	if len(out.Metrics) != len(defs) || out.Attempted < 1 {
		return fmt.Errorf("JSON result has %d metrics and %d attempted jobs, want %d metrics", len(out.Metrics), out.Attempted, len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			return fmt.Errorf("metric %s missing or without unit %s in the JSON result", d.Name, d.Unit)
		}
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("metric %s is not printed with unit %s", d.Name, d.Unit)
		}
	}
	return nil
}
