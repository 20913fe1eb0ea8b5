package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/peachstar"
)

// contract mirrors BENCHMARK.json. Unknown keys fail the decode, so the file
// holds exactly these.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables holds BENCHMARK.json to the metric and workload
// tables the program reports from, and to the driver's limits on the file.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if want := []string{"cmd/bench"}; !reflect.DeepEqual(c.Paths, want) {
		t.Errorf("paths = %v, want %v", c.Paths, want)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the form %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, g := range got {
			name(g.Name)
			d := want[i]
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is not of the form %s", g.Name, g.Unit, unitRE)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d is %+v, the program has %+v", kind, i, g, d)
			}
			switch {
			case d.Bound == 0 && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			case d.Bound != 0 && (g.Bound == nil || *g.Bound != d.Bound || d.Bound > 0.25):
				t.Errorf("%s: bound %v, the program has %v (at most 0.25)", g.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd)
	check("per-layer", c.PerLayer, perLayer)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// chdirTemp runs the test in an empty directory: the benchmark writes under
// its working directory.
func chdirTemp(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestSmokeFullRun runs every workload and its traced pass at a hundredth of
// the budget and checks that each reports every metric, with no failed
// operation, and leaves a well-formed span file.
func TestSmokeFullRun(t *testing.T) {
	chdirTemp(t)
	var out bytes.Buffer
	o := options{seed: 1, smoke: true, jsonPath: "results.json", traceOut: "trace"}
	if err := runFull(&out, o); err != nil {
		t.Fatalf("runFull: %v\n%s", err, out.String())
	}
	res, err := readResults("results.json")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Provenance.Smoke || res.Provenance.GoVersion == "" || res.Provenance.NumCPU == 0 || res.Provenance.Date == "" {
		t.Errorf("incomplete provenance: %+v", res.Provenance)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s: no results", w.Name)
		}
		if wr.OpsFailed != 0 || wr.OpsAttempted != 4 { // warm-up, two reps, traced pass
			t.Errorf("%s: ops_failed=%d ops_attempted=%d", w.Name, wr.OpsFailed, wr.OpsAttempted)
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			m, ok := wr.Metrics[d.Name]
			if !ok || m.N == 0 {
				t.Errorf("%s: metric %s was not reported", w.Name, d.Name)
				continue
			}
			if m.Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
			}
			// A full run prints each metric once under its workload.
			if n := strings.Count(section(out.String(), w.Name), "  "+d.Name+" "); n != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, d.Name, n)
			}
		}
		checkSpans(t, filepath.Join("trace", w.Name+".jsonl"), w.Name)
	}
	if _, ok := res.Workloads["modbus_fleet2"].Metrics[fleetScaling.Name]; !ok {
		t.Errorf("%s missing from a run that measured both of its workloads", fleetScaling.Name)
	}
}

// section is the part of a full run's output that belongs to one workload.
func section(out, workload string) string {
	_, rest, _ := strings.Cut(out, "\n"+workload+"  budget=")
	body, _, _ := strings.Cut(rest, "\n\n")
	return body
}

func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	names := map[string]int{}
	ids := map[int]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if s.Workload != workload || s.ID == 0 || s.EndNs < s.StartNs || (s.Parent != 0 && !ids[s.Parent]) {
			t.Errorf("%s: malformed span %+v", path, s)
			return
		}
		ids[s.ID] = true
		names[s.Name]++
	}
	for _, want := range []string{"run", "core.window", "checkpoint.write", "checkpoint.restore", "fleetnet.sync", "replay.batch", "datamodel.generate", "executor.run"} {
		if names[want] == 0 {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

// TestDriverLine checks the one-line result the driver reads, in both
// modes: exactly the four keys, and exactly the metrics BENCHMARK.json
// names for the mode.
func TestDriverLine(t *testing.T) {
	chdirTemp(t)
	for _, tc := range []struct {
		workload string
		trace    int
		defs     []metricDef
	}{
		{"modbus_leaf", 0, endToEnd},
		{"iec104_session", 1, perLayer},
	} {
		var out bytes.Buffer
		o := options{workloads: tc.workload, seed: 2, smoke: true, seconds: 0.05, trace: tc.trace}
		if err := runDriver(&out, o); err != nil {
			t.Fatalf("%s trace=%d: %v", tc.workload, tc.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", tc.workload, err)
		}
		if keys := sortedKeys(got); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("%s: result keys %v", tc.workload, keys)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", tc.workload, tc.trace, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("%s trace=%d: metric %s missing or without its unit: %+v", tc.workload, tc.trace, d.Name, m)
			}
		}
		if string(got["correct"]) != "true" || string(got["failed"]) != "0" {
			t.Errorf("%s: correct=%s failed=%s", tc.workload, got["correct"], got["failed"])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestRefusesWorkloadWiderThanHost(t *testing.T) {
	w, _ := findWorkload("modbus_fleet2")
	if err := w.refuse(1); err == nil {
		t.Error("modbus_fleet2 accepted on a 1-CPU host")
	}
	if err := w.refuse(2); err != nil {
		t.Errorf("modbus_fleet2 refused on a 2-CPU host: %v", err)
	}
}

// TestFingerprint: the seven counters two reps of one serial campaign must
// share each change the fingerprint; counters outside it do not.
func TestFingerprint(t *testing.T) {
	base := peachstar.Stats{Execs: 1, Iterations: 2, Paths: 3, Edges: 4, UniqueCrashes: 5, CorpusPuzzles: 6, Sequences: 7, Hangs: 8, SemanticExecs: 9}
	for _, tc := range []struct {
		name   string
		change func(*peachstar.Stats)
		same   bool
	}{
		{"identical", func(*peachstar.Stats) {}, true},
		{"execs", func(s *peachstar.Stats) { s.Execs++ }, false},
		{"iterations", func(s *peachstar.Stats) { s.Iterations++ }, false},
		{"paths", func(s *peachstar.Stats) { s.Paths++ }, false},
		{"edges", func(s *peachstar.Stats) { s.Edges-- }, false},
		{"crashes", func(s *peachstar.Stats) { s.UniqueCrashes++ }, false},
		{"puzzles", func(s *peachstar.Stats) { s.CorpusPuzzles++ }, false},
		{"sequences", func(s *peachstar.Stats) { s.Sequences++ }, false},
		{"hangs are outside it", func(s *peachstar.Stats) { s.Hangs++ }, true},
		{"semantic execs are outside it", func(s *peachstar.Stats) { s.SemanticExecs++ }, true},
	} {
		other := base
		tc.change(&other)
		if got := fingerprintOf(base) == fingerprintOf(other); got != tc.same {
			t.Errorf("%s: same = %v, want %v", tc.name, got, tc.same)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(better string, bound float64, xs ...float64) metricResult {
		return metricDef{Better: better, Bound: bound}.result(xs)
	}
	for _, tc := range []struct {
		name            string
		a, b            metricResult
		sameWork, exact bool
		want            string
	}{
		{"same runs", m("higher", 0.10, 100, 101, 102), m("higher", 0.10, 100, 101, 102), false, false, unchanged},
		{"throughput down 5%, inside a 10% bound", m("higher", 0.10, 100, 101, 102), m("higher", 0.10, 95, 96, 97), false, false, unchanged},
		{"throughput down 20%", m("higher", 0.10, 100, 101, 102), m("higher", 0.10, 80, 81, 82), false, false, regressed},
		{"throughput up beyond the spread", m("higher", 0.10, 100, 101, 102), m("higher", 0.10, 110, 111, 112), false, false, improved},
		{"latency up 30%", m("lower", 0.25, 1.0, 1.01, 1.02), m("lower", 0.25, 1.3, 1.32, 1.34), false, false, regressed},
		{"latency down", m("lower", 0.25, 1.0, 1.01, 1.02), m("lower", 0.25, 0.8, 0.81, 0.82), false, false, improved},
		{"spread wider than the bound", m("higher", 0.10, 80, 100, 120), m("higher", 0.10, 85, 95, 105), false, false, unresolved},
		{"wide spread but every run better", m("higher", 0.10, 80, 100, 120), m("higher", 0.10, 130, 150, 170), false, false, improved},
		// Times to goal of three campaigns: far apart from each other, each
		// the same in both runs. Only pairing resolves them.
		{"campaigns differ, unpaired", m("lower", 0.25, 0.02, 0.05, 0.11), m("lower", 0.25, 0.0202, 0.0495, 0.1111), false, false, unresolved},
		{"campaigns differ, paired", m("lower", 0.25, 0.02, 0.05, 0.11), m("lower", 0.25, 0.0202, 0.0495, 0.1111), true, false, unchanged},
		{"campaigns differ, paired, each 40% slower", m("lower", 0.25, 0.02, 0.05, 0.11), m("lower", 0.25, 0.028, 0.07, 0.154), true, false, regressed},
		{"campaigns differ, paired, each 20% faster", m("lower", 0.25, 0.02, 0.05, 0.11), m("lower", 0.25, 0.016, 0.04, 0.088), true, false, improved},
		{"count equal", m("higher", 0.03, 187), m("higher", 0.03, 187), true, true, unchanged},
		{"count down by one on a serial workload", m("higher", 0.03, 187), m("higher", 0.03, 186), true, true, regressed},
		{"count up by one on a serial workload", m("higher", 0.03, 187), m("higher", 0.03, 188), true, true, improved},
		{"count down by one, different seeds", m("higher", 0.03, 187), m("higher", 0.03, 186), false, true, unchanged},
		{"per-layer timing has no bound", m("lower", 0, 400), m("lower", 0, 900), true, false, info},
	} {
		if got := verdict(tc.a, tc.b, tc.sameWork, tc.exact); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
