// Command bench is the repository's one benchmark: six closed-loop Peach*
// campaign workloads, four end-to-end metrics measured with tracing off, and
// a traced pass that times every layer from outside. README.md in this
// directory has the tables; BENCHMARK.json at the repository root is the
// contract a driver runs it under.
//
//	go run ./cmd/bench                          # all workloads, 1+9 reps, traced pass
//	go run ./cmd/bench -workload mms_serial -seed 2
//	go run ./cmd/bench -compare a.json b.json
//	go run ./cmd/bench --workload modbus_serial --seed 3 --seconds 14 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/rng"
)

func main() {
	var o options
	flag.StringVar(&o.workloads, "workload", "", "comma-separated workload names (default: all)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; campaign seeds are drawn from it")
	flag.IntVar(&o.reps, "reps", 9, "timed reps per workload, after one discarded warm-up rep")
	flag.BoolVar(&o.smoke, "smoke", false, "budgets / 100, 2 reps, coverage goals and floors off; for tests, never a baseline")
	flag.StringVar(&o.jsonPath, "json", filepath.Join(tmpRoot, "results.json"), "where a full run writes its results")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(tmpRoot, "trace"), "directory a full run writes its span files to")
	flag.Float64Var(&o.seconds, "seconds", 0, "driver mode: measure one workload for this long and print one JSON result line")
	flag.IntVar(&o.trace, "trace", 0, "driver mode: 0 = end-to-end metrics with tracing off, 1 = per-layer metrics from the traced pass")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case o.seconds > 0:
		err = runDriver(os.Stdout, o)
	default:
		err = runFull(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workloads string
	seed      uint64
	reps      int
	smoke     bool
	jsonPath  string
	traceOut  string
	seconds   float64
	trace     int
}

// selected resolves -workload.
func (o options) selected() ([]workload, error) {
	var out []workload
	if o.workloads == "" {
		out = append(out, workloads...)
	} else {
		for _, name := range strings.Split(o.workloads, ",") {
			w, ok := findWorkload(name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			out = append(out, w)
		}
	}
	for i, w := range out {
		if err := w.refuse(runtime.NumCPU()); err != nil {
			return nil, err
		}
		if o.smoke {
			out[i] = w.smoke()
		}
	}
	return out, nil
}

// campaignSeeds draws the panel of campaign seeds a run uses from the
// workload seed. The warm-up rep and timed rep 0 share seed 0 of the panel;
// timed rep i runs seed i, so a run's medians are over different campaigns
// and do not hang on one seed's luck.
func campaignSeeds(seed uint64) func(i int) uint64 {
	r := rng.New(seed)
	var panel []uint64
	return func(i int) uint64 {
		for len(panel) <= i {
			panel = append(panel, r.Uint64())
		}
		return panel[i]
	}
}

// calibTable is what calibLoop reads: 4 MiB, larger than an L2 cache.
var calibTable = make([]uint64, 1<<19)

// calibLoop times a fixed loop of 2^19 reads scattered over calibTable: pure
// CPU and cache, no system calls, nothing of the program under test. It
// returns the median of five passes, and the spread of its readings over a
// run says how steady the host was. The reads matter: on the reference
// host an arithmetic-only loop ran at one speed (2.1 against 2.2 ms) through
// phases in which every campaign ran 1.7 times slower, and this loop does
// not (0.77 against 1.27 ms).
func calibLoop() float64 {
	var passes [5]float64
	for p := range passes {
		idx, sum := uint64(1), uint64(0)
		t0 := time.Now()
		for i := 0; i < len(calibTable); i++ {
			idx = idx*6364136223846793005 + 1442695040888963407
			sum += calibTable[idx>>45]
		}
		sink += sum
		passes[p] = float64(time.Since(t0).Nanoseconds())
	}
	return median(passes[:])
}

// untraced collects one workload's reps with tracing off.
type untraced struct {
	w         workload
	warm      rep
	reps      []rep // full-budget reps, warm-up excluded
	goalReps  []rep // campaigns stopped at the goal
	attempted int
	failed    int
	firstErr  error
}

// add files a finished rep and counts it as one operation.
func (u *untraced) add(r rep, kind string, i int) {
	u.attempted++
	if r.Err != nil {
		u.failed++
		if u.firstErr == nil {
			u.firstErr = fmt.Errorf("%s: %s rep %d: %w", u.w.Name, kind, i, r.Err)
		}
	}
}

func (u *untraced) warmUp(seed uint64) {
	u.warm = u.w.runRep(seed, false)
	u.add(u.warm, "warm-up", 0)
}

func (u *untraced) fullRep(seed uint64) {
	r := u.w.runRep(seed, false)
	i := len(u.reps)
	// Timed rep 0 repeats the warm-up's campaign: on a serial workload the
	// two must agree to the last counter.
	if i == 0 && r.Err == nil && u.warm.Err == nil && u.w.Serial {
		if a, b := fingerprintOf(u.warm.Stats), fingerprintOf(r.Stats); a != b {
			r.Err = fmt.Errorf("not deterministic: same seed gave %+v then %+v", a, b)
		}
	}
	u.reps = append(u.reps, r)
	u.add(r, "rep", i)
}

func (u *untraced) goalRep(seed uint64) {
	r := u.w.runRep(seed, true)
	u.goalReps = append(u.goalReps, r)
	u.add(r, "goal rep", len(u.goalReps)-1)
}

// samples turns the good reps into per-metric samples.
func (u *untraced) samples() map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range u.reps {
		if r.Err != nil {
			continue
		}
		execs := float64(r.Stats.Execs)
		s["execs_per_s"] = append(s["execs_per_s"], execs/r.Wall.Seconds())
		s["edges"] = append(s["edges"], float64(r.Stats.Edges))
		s["runtime.allocs_per_exec"] = append(s["runtime.allocs_per_exec"], float64(r.Mallocs)/execs)
		s["runtime.bytes_per_exec"] = append(s["runtime.bytes_per_exec"], float64(r.AllocBytes)/execs)
		s["runtime.gc_cycles"] = append(s["runtime.gc_cycles"], float64(r.GCs))
		s["runtime.gc_pause_ms"] = append(s["runtime.gc_pause_ms"], float64(r.GCPause.Nanoseconds())/1e6)
	}
	for _, r := range append(append([]rep{}, u.reps...), u.goalReps...) {
		if r.Err != nil {
			continue
		}
		s["t_goal_s"] = append(s["t_goal_s"], r.TGoal.Seconds())
		s["setup_s"] = append(s["setup_s"], r.Setup.Seconds())
	}
	return s
}

// tracedPass runs one workload's traced pass: the traced campaign, the
// service probes on its end state, and the stage replay. ref is the untraced
// rep of the same campaign seed, which the traced campaign must reproduce;
// untracedRate is the untraced reps' median execs/s, for the tracing
// overhead.
func tracedPass(w workload, seed uint64, ref rep, untracedRate float64, traceOut string) (map[string]float64, error) {
	tr := newTracer(w.Name)
	f, err := newTracedFleet(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()

	t0 := time.Now()
	if err := f.run(); err != nil {
		return nil, fmt.Errorf("%s: traced campaign: %w", w.Name, err)
	}
	wall := time.Since(t0)
	st := f.fleet.Stats()
	if w.Serial && ref.Err == nil && fingerprintOf(st) != fingerprintOf(ref.Stats) {
		return nil, fmt.Errorf("%s: traced campaign %+v is not the untraced one %+v", w.Name, fingerprintOf(st), fingerprintOf(ref.Stats))
	}
	ckptSlices, syncSlices := 9, 32
	if w.Smoke {
		ckptSlices, syncSlices = 1, 4
	}
	if err := f.probeServices(ckptSlices, syncSlices); err != nil {
		return nil, fmt.Errorf("%s: service probe: %w", w.Name, err)
	}
	rp, err := stageReplay(w, seed, w.Budget/10, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if traceOut != "" {
		if err := tr.writeJSONL(filepath.Join(traceOut, w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}

	var windowUs, stepNs []float64
	for i := range f.windowUs {
		windowUs = append(windowUs, f.windowUs[i]...)
		stepNs = append(stepNs, f.stepNs[i]...)
	}
	tx, rx := f.leaf.Traffic()
	perCall := func(stage string) float64 { return median(rp.perCall[stage]) }
	step := median(stepNs)
	execs := float64(st.Execs)
	m := map[string]float64{
		"datamodel.generate_ns":      perCall("datamodel.generate"),
		"datamodel.fixup_ns":         perCall("datamodel.fixup"),
		"datamodel.serialize_ns":     perCall("datamodel.serialize"),
		"datamodel.crack_ns":         perCall("datamodel.crack"),
		"datamodel.crc16_ns_per_kib": perCall("datamodel.crc16"),
		"mutator.mutate_ns":          perCall("mutator.mutate"),
		"corpus.add_ns":              perCall("corpus.add"),
		"corpus.donors_ns":           perCall("corpus.donors"),
		"executor.run_ns":            perCall("executor.run"),
		"coverage.merge_ns":          perCall("executor.run+coverage.merge") - perCall("executor.run"),
		"coverage.edges_per_exec":    mean(rp.edgesPerExec),
		"session.codec_ns":           perCall("session.codec"),
		"core.step_ns":               step,
		"core.window_us_p50":         median(windowUs),
		"core.window_us_p99":         quantile(windowUs, 0.99),
		"core.self_share":            1 - rp.sumNs/step,
		"core.valuable_per_kexec":    float64(st.Paths) / execs * 1000,
		"core.semantic_exec_share":   float64(st.SemanticExecs) / execs,
		"core.iterations":            float64(st.Iterations),
		"corpus.puzzles":             float64(st.CorpusPuzzles),
		"crash.unique":               float64(st.UniqueCrashes),
		"session.sequences":          float64(st.Sequences),
		"checkpoint.write_ms_p50":    median(f.ckptMs),
		"checkpoint.write_ms_p95":    quantile(f.ckptMs, 0.95),
		"checkpoint.bytes":           float64(len(f.ckptData)),
		"checkpoint.restore_ms":      f.restoreMs,
		"fleetnet.window_us_p50":     median(f.syncUs),
		"fleetnet.window_us_p95":     quantile(f.syncUs, 0.95),
		"fleetnet.empty_window_us":   median(f.emptyUs),
		"fleetnet.bytes_per_window":  float64(tx+rx) / float64(f.syncs),
		"fleetnet.sync_errors":       float64(f.syncErrs),
		"trace.overhead_pct":         (untracedRate/(execs/wall.Seconds()) - 1) * 100,
	}
	return m, nil
}

// runDriver is the mode BENCHMARK.json's command runs: one workload for
// -seconds of measuring, then one JSON line with either the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1).
func runDriver(out io.Writer, o options) error {
	ws, err := o.selected()
	if err != nil {
		return err
	}
	if len(ws) != 1 {
		return fmt.Errorf("-seconds measures one workload: give -workload one name")
	}
	w := ws[0]
	seeds := campaignSeeds(o.seed)
	budget := time.Duration(o.seconds * float64(time.Second))
	u := &untraced{w: w}
	u.warmUp(seeds(0))
	calib := []float64{calibLoop()}

	defs := endToEnd
	var samples map[string][]float64
	t0 := time.Now()
	if o.trace == 0 {
		// Full-budget reps take the first part of the measuring time and
		// give throughput and coverage; the rest goes to campaigns that stop
		// at the goal, because time-to-goal varies most from seed to seed
		// and needs the most campaigns behind its median.
		for i := 0; i < 3 || time.Since(t0) < budget*55/100; i++ {
			u.fullRep(seeds(i))
		}
		for i := len(u.reps); len(u.goalReps) < 8 || time.Since(t0) < budget; i++ {
			u.goalRep(seeds(i))
		}
		samples = u.samples()
	} else {
		defs = perLayer
		for i := 0; i < 2 || time.Since(t0) < budget*30/100; i++ {
			u.fullRep(seeds(i))
		}
		samples = u.samples()
		layer, err := tracedPass(w, seeds(0), u.reps[0], median(samples["execs_per_s"]), "")
		if err != nil {
			return err
		}
		for name, v := range layer {
			samples[name] = []float64{v}
		}
	}
	calib = append(calib, calibLoop())
	samples["host.calib_ns"] = calib
	fmt.Fprintf(out, "host calibration loop after the warm-up and at the end: %.0f ns, %.0f ns\n", calib[0], calib[1])

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		xs := samples[d.Name]
		if len(xs) == 0 {
			return fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		v := d.value(xs)
		fmt.Fprintf(out, "%-16s %-28s %14.6g %s\n", w.Name, d.Name, v, d.Unit)
		result.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return u.firstErr
}

// Result file of a full run.
type results struct {
	Provenance provenance                 `json:"provenance"`
	Noisy      bool                       `json:"noisy"`
	CalibNs    []float64                  `json:"calib_ns"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Date       string `json:"date"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	Smoke      bool   `json:"smoke"`
}

type workloadResult struct {
	Budget       int                     `json:"budget"`
	Goal         int                     `json:"goal"`
	Floor        int                     `json:"floor"`
	Serial       bool                    `json:"serial"`
	OpsAttempted int                     `json:"ops_attempted"`
	OpsFailed    int                     `json:"ops_failed"`
	Metrics      map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Count  bool    `json:"count,omitempty"`
	// Value is the number the metric is reported as: the mean of a count's
	// samples, the median of a timing's.
	Value float64 `json:"value"`
	summary
	// Samples are the readings in rep order. Rep i of two runs with one
	// seed is the same campaign, which lets -compare pair them.
	Samples []float64 `json:"samples"`
}

func (d metricDef) result(xs []float64) metricResult {
	return metricResult{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Count: d.Count, Value: d.value(xs), summary: summarize(xs), Samples: xs}
}

func newProvenance(o options) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date: time.Now().UTC().Format(time.RFC3339), Seed: o.seed, Reps: o.reps, Smoke: o.smoke,
	}
	// Outside a git checkout the commit stays unknown.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(rev))
		status, _ := exec.Command("git", "status", "--porcelain").Output()
		p.Dirty = len(status) > 0
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return p
}

// runFull is the default mode: every selected workload in one process, the
// untraced reps interleaved rep-major, then one traced pass per workload.
func runFull(out io.Writer, o options) error {
	ws, err := o.selected()
	if err != nil {
		return err
	}
	if o.smoke {
		o.reps = 2
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	res, err := measure(ws, o)
	if err != nil {
		return err
	}
	printResults(out, ws, res)
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(o.jsonPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "results: %s\n", o.jsonPath)
	}
	if o.traceOut != "" {
		fmt.Fprintf(out, "spans:   %s/<workload>.jsonl\n", o.traceOut)
	}
	for _, w := range ws {
		if r := res.Workloads[w.Name]; r.OpsFailed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.Name, r.OpsFailed, r.OpsAttempted)
		}
	}
	return nil
}

// measure runs the untraced reps and the traced passes of a full run.
func measure(ws []workload, o options) (*results, error) {
	res := &results{Provenance: newProvenance(o), Workloads: map[string]*workloadResult{}}
	seeds := campaignSeeds(o.seed)
	us := make([]*untraced, len(ws))
	for i, w := range ws {
		us[i] = &untraced{w: w}
	}
	// Rep-major: a slow phase of the host lands on one rep of every
	// workload, not on every rep of one. Every rep-round is followed by a reading of the calibration loop; the first
	// reading comes after the warm-up round, when the process is warm too.
	for r := -1; r < o.reps; r++ {
		for _, u := range us {
			if r < 0 {
				u.warmUp(seeds(0))
			} else {
				u.fullRep(seeds(r))
			}
		}
		res.CalibNs = append(res.CalibNs, calibLoop())
	}
	calib := summarize(res.CalibNs)
	res.Noisy = (calib.Max-calib.Min)/calib.Median > 0.15

	var firstErr error
	for _, u := range us {
		w := u.w
		wr := &workloadResult{
			Budget: w.Budget, Goal: w.Goal, Floor: w.Floor, Serial: w.Serial,
			OpsAttempted: u.attempted, OpsFailed: u.failed, Metrics: map[string]metricResult{},
		}
		res.Workloads[w.Name] = wr
		if firstErr == nil {
			firstErr = u.firstErr
		}
		samples := u.samples()
		samples["host.calib_ns"] = res.CalibNs
		wr.OpsAttempted++
		layer, err := tracedPass(w, seeds(0), u.reps[0], median(samples["execs_per_s"]), o.traceOut)
		if err != nil {
			wr.OpsFailed++
			if firstErr == nil {
				firstErr = err
			}
		}
		for name, v := range layer {
			samples[name] = []float64{v}
		}
		for _, d := range allMetrics() {
			if xs := samples[d.Name]; len(xs) > 0 {
				wr.Metrics[d.Name] = d.result(xs)
			}
		}
	}
	// Scaling has a base: the serial workload on the same target at the same
	// per-worker budget. Without both there is no ratio to give.
	if fleet, serial := res.Workloads["modbus_fleet2"], res.Workloads["modbus_serial"]; fleet != nil && serial != nil {
		if a, b := fleet.Metrics["execs_per_s"], serial.Metrics["execs_per_s"]; a.N > 0 && b.N > 0 {
			fleet.Metrics[fleetScaling.Name] = fleetScaling.result([]float64{a.Value / b.Value})
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure:", firstErr)
	}
	return res, nil
}

func printResults(out io.Writer, ws []workload, res *results) {
	p := res.Provenance
	fmt.Fprintf(out, "commit %s dirty=%v  %s  %s  NumCPU=%d GOMAXPROCS=%d  %s  seed=%d reps=%d smoke=%v noisy=%v\n",
		p.Commit, p.Dirty, p.GoVersion, p.CPU, p.NumCPU, p.GOMAXPROCS, p.Date, p.Seed, p.Reps, p.Smoke, res.Noisy)
	for _, w := range ws {
		r := res.Workloads[w.Name]
		fmt.Fprintf(out, "\n%s  budget=%d goal=%d floor=%d  ops_attempted=%d ops_failed=%d\n", w.Name, r.Budget, r.Goal, r.Floor, r.OpsAttempted, r.OpsFailed)
		for _, d := range allMetrics() {
			m, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "  %-28s %14.6g %-10s", d.Name, m.Value, m.Unit)
			if m.N > 1 {
				fmt.Fprintf(out, "  min %.6g  q1 %.6g  q3 %.6g  n=%d", m.Min, m.Q1, m.Q3, m.N)
			}
			fmt.Fprintln(out)
		}
	}
}
