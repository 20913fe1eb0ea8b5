package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. The two tables below are the
// benchmark's whole vocabulary; BENCHMARK.json lists the same names and
// bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it regressed. End-to-end metrics only;
	// per-layer metrics have none.
	Bound float64
	// Count marks a number the program counts rather than times. For a
	// fixed -seed and -reps it repeats exactly on the serial workloads, so
	// -compare holds it to equality there. A count is reported as the mean
	// of its samples, a timing as the median: final coverage on IEC104 has
	// two humps (82 and 85 edges), and the median of a handful of campaigns
	// jumps between them.
	Count bool
}

var endToEnd = []metricDef{
	{Name: "execs_per_s", Unit: "execs/s", Better: "higher", Bound: 0.15},
	{Name: "t_goal_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "edges", Unit: "count", Better: "higher", Bound: 0.10, Count: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer metrics every workload emits from its traced pass.
var perLayer = []metricDef{
	{Name: "datamodel.generate_ns", Unit: "ns/call", Better: "lower"},
	{Name: "datamodel.fixup_ns", Unit: "ns/call", Better: "lower"},
	{Name: "datamodel.serialize_ns", Unit: "ns/call", Better: "lower"},
	{Name: "datamodel.crack_ns", Unit: "ns/seed", Better: "lower"},
	{Name: "datamodel.crc16_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "mutator.mutate_ns", Unit: "ns/call", Better: "lower"},
	{Name: "corpus.add_ns", Unit: "ns/call", Better: "lower"},
	{Name: "corpus.donors_ns", Unit: "ns/call", Better: "lower"},
	{Name: "executor.run_ns", Unit: "ns/call", Better: "lower"},
	{Name: "coverage.merge_ns", Unit: "ns/call", Better: "lower"},
	{Name: "coverage.edges_per_exec", Unit: "count", Better: "higher"},
	{Name: "session.codec_ns", Unit: "ns/seq", Better: "lower"},
	{Name: "core.step_ns", Unit: "ns/exec", Better: "lower"},
	{Name: "core.window_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.window_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.valuable_per_kexec", Unit: "1/kexec", Better: "higher", Count: true},
	{Name: "core.semantic_exec_share", Unit: "ratio", Better: "higher", Count: true},
	{Name: "core.iterations", Unit: "count", Better: "higher", Count: true},
	{Name: "corpus.puzzles", Unit: "count", Better: "higher", Count: true},
	{Name: "crash.unique", Unit: "count", Better: "higher", Count: true},
	{Name: "session.sequences", Unit: "count", Better: "higher", Count: true},
	{Name: "checkpoint.write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.write_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "fleetnet.window_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleetnet.window_us_p95", Unit: "us", Better: "lower"},
	{Name: "fleetnet.empty_window_us", Unit: "us", Better: "lower"},
	{Name: "fleetnet.bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "fleetnet.sync_errors", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_exec", Unit: "1/exec", Better: "lower"},
	{Name: "runtime.bytes_per_exec", Unit: "bytes/exec", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// fleetScaling is reported only by a full run that measured both workloads
// it divides, so it is not among the metrics every workload emits.
var fleetScaling = metricDef{Name: "core.fleet_scaling_x", Unit: "ratio", Better: "higher"}

// allMetrics lists every metric a full run can report, in report order.
func allMetrics() []metricDef {
	all := append([]metricDef{}, endToEnd...)
	return append(append(all, perLayer...), fleetScaling)
}

// summary is the order statistics of one metric's samples.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: sortedQuantile(s, 0.5),
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     sortedQuantile(s, 0.25),
		Q3:     sortedQuantile(s, 0.75),
		N:      len(s),
	}
}

// sortedQuantile interpolates linearly between the order statistics of
// sorted.
func sortedQuantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quantile is the q-quantile of xs, 0 when there are none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// value is the one number a metric is reported as.
func (d metricDef) value(xs []float64) float64 {
	if d.Count {
		return mean(xs)
	}
	return median(xs)
}
