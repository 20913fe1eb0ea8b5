package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (metric, workload) row. A row is unresolved when its noise
// is wider than the metric's bound: the two sides then cannot be told apart
// at the precision the bound asks for.
//
// A per-layer timing has no bound and a full run samples it once, so it is
// shown with its move and judged by nobody: info.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	info       = "info"
)

// worse is how much worse b reads than a, as a share of a: positive when b
// is worse, negative when it is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		a = 1 // a share of zero is undefined; report the absolute move
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

// spread is a side's interquartile range as a share of its value.
func (m metricResult) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

// move says how much worse b reads than a, how far that reading can be
// trusted, and whether every reading of b beats a's.
//
// Paired, sample i of both sides is the same campaign (same seed, same rep),
// so the move is the median of the per-campaign moves and the noise is their
// interquartile range: what differs between campaigns — most of a time to
// goal — cancels. Unpaired, the move is between the two values and the noise
// is the wider side's spread.
func move(a, b metricResult, paired bool) (worseBy, noise float64, allBetter bool) {
	if paired && len(a.Samples) == len(b.Samples) && len(a.Samples) > 1 {
		moves := make([]float64, len(a.Samples))
		allBetter = true
		for i := range moves {
			moves[i] = worse(a.Samples[i], b.Samples[i], a.Better)
			allBetter = allBetter && moves[i] < 0
		}
		s := summarize(moves)
		return s.Median, s.Q3 - s.Q1, allBetter
	}
	allBetter = a.Better == "higher" && b.Min > a.Max || a.Better == "lower" && b.Max < a.Min
	return worse(a.Value, b.Value, a.Better), max(a.spread(), b.spread()), allBetter
}

// verdict judges b (the change) against a (the base). sameWork says both
// ran the same campaigns (one seed, one rep count): readings then pair up,
// and a count on a serial workload (exact) is held to equality, because any
// move in it is a change of behaviour, not noise.
func verdict(a, b metricResult, sameWork, exact bool) string {
	if exact && sameWork {
		switch w := worse(a.Value, b.Value, a.Better); {
		case w > 0:
			return regressed
		case w < 0:
			return improved
		}
		return unchanged
	}
	if a.Bound == 0 {
		return info
	}
	w, noise, allBetter := move(a, b, sameWork)
	switch {
	case noise > a.Bound && allBetter:
		return improved
	case noise > a.Bound:
		return unresolved
	case w > a.Bound:
		return regressed
	case -w > noise:
		return improved
	}
	return unchanged
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (metric, workload) present in both files
// and fails when any row regressed.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s  commit %s dirty=%v seed=%d reps=%d noisy=%v\n", pathA, a.Provenance.Commit, a.Provenance.Dirty, a.Provenance.Seed, a.Provenance.Reps, a.Noisy)
	fmt.Fprintf(out, "b: %s  commit %s dirty=%v seed=%d reps=%d noisy=%v\n", pathB, b.Provenance.Commit, b.Provenance.Dirty, b.Provenance.Seed, b.Provenance.Reps, b.Noisy)
	sameWork := a.Provenance.Seed == b.Provenance.Seed && a.Provenance.Reps == b.Provenance.Reps
	if !sameWork {
		fmt.Fprintln(out, "seeds or reps differ: readings are not paired, and counts are compared within their bounds, not exactly")
	}
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	counts := map[string]int{}
	fmt.Fprintf(out, "%-16s %-28s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "noise", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, d := range allMetrics() {
			ma, okA := wa.Metrics[d.Name]
			mb, okB := wb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(ma, mb, sameWork, ma.Count && wa.Serial)
			w, noise, _ := move(ma, mb, sameWork)
			counts[v]++
			bound := "-"
			if ma.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", ma.Bound*100)
			}
			fmt.Fprintf(out, "%-16s %-28s %14.6g %14.6g %+8.1f%% %6.1f%% %7s  %-10s [a q1 %.6g q3 %.6g | b q1 %.6g q3 %.6g]\n",
				name, d.Name, ma.Value, mb.Value, w*100, noise*100, bound, v, ma.Q1, ma.Q3, mb.Q1, mb.Q3)
		}
	}
	fmt.Fprintf(out, "%d improved, %d unchanged, %d regressed, %d unresolved, %d info\n", counts[improved], counts[unchanged], counts[regressed], counts[unresolved], counts[info])
	if counts[regressed] > 0 {
		return fmt.Errorf("%d rows regressed", counts[regressed])
	}
	return nil
}
