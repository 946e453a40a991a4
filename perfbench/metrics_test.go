package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var got []metric
	for _, m := range bf.EndToEnd {
		got = append(got, metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range bf.PerLayer {
		got = append(got, metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	want := append(append([]metric(nil), endToEnd...), perLayer...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the program %+v", i, got[i], want[i])
		}
		if !nameRE.MatchString(want[i].Name) || !unitRE.MatchString(want[i].Unit) {
			t.Errorf("metric %q has a malformed name or unit %q", want[i].Name, want[i].Unit)
		}
		if seen[want[i].Name] {
			t.Errorf("metric %q listed twice", want[i].Name)
		}
		seen[want[i].Name] = true
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program's %v", names, workloadNames)
	}
}

// TestPrintedMetrics runs every workload briefly, untraced and traced,
// and checks the printed result line: every metric name is well formed
// and listed in BENCHMARK.json for that mode, and every output check
// passes.
func TestPrintedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	listed := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		listed[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		listed[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--workdir", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %t, %d of %d failed:\n%s", w, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			want := listed[trace == "1"]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: printed %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for name, v := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s trace %s: malformed metric name %q", w, trace, name)
				}
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s trace %s: metric %q (%s) is not in BENCHMARK.json as printed", w, trace, name, v.Unit)
				}
			}
		}
	}
}
