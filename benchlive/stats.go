package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it.
const minTail = 10

// percentileLadder lists the percentiles the benchmark may report, in
// increasing order.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// supportedPercentile returns the highest percentile of the ladder that
// has at least minTail of n samples beyond it, or 0 when none has.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(1-p/100) >= minTail-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// median of unsorted values (NaN for none).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

// latencySummary is one open-loop phase's latency distribution.
type latencySummary struct {
	n        int
	p50, p99 float64 // ms
	top      float64 // highest supported percentile
	topValue float64 // ms at that percentile
}

func summarize(samplesMs []float64) (latencySummary, error) {
	s := append([]float64(nil), samplesMs...)
	sort.Float64s(s)
	top := supportedPercentile(len(s))
	if top < 99 {
		return latencySummary{}, fmt.Errorf("%d latency samples cannot support p99 (need %d)", len(s), 100*minTail)
	}
	return latencySummary{n: len(s), p50: percentile(s, 50), p99: percentile(s, 99),
		top: top, topValue: percentile(s, top)}, nil
}

// endToEndNames and layerNames are the metrics a run reports with
// --trace 0 and --trace 1, in order; BENCHMARK.json lists the same.
var (
	endToEndNames = []string{"setup_s", "peak_tps", "lat_p50_ms.low", "locality", "reconfig_s", "peak_heap_mb"}
	layerNames    = []string{
		"engine.inject_wait_ms", "engine.inflight_max", "engine.load_imbalance", "engine.single_server_tps",
		"routing.route_ns", "routing.hash_fallback_frac", "routing.la_over_hash",
		"spacesaving.add_ns", "spacesaving.pairs_tracked",
		"core.collect_ms", "core.compute_ms", "core.deploy_ms", "core.keys_moved", "core.expected_locality",
		"keygraph.build_ms", "keygraph.vertices", "keygraph.edges",
		"partition.ms", "partition.cut_frac", "partition.imbalance",
		"transport.tuples_sent", "transport.sent_per_transfer", "transport.bytes_per_tuple",
		"transport.tuples_per_frame", "transport.syscalls_per_flush", "transport.frames_per_writev",
		"transport.encode_ns_per_tuple", "transport.compression_ratio", "transport.dict_hit_rate",
		"transport.flush_size", "transport.flush_timer", "transport.flush_control", "transport.send_ns",
		"lat_p50_ms.high", "lat_p99_ms.low", "lat_p99_ms.high", "harness.late_ms", "harness.trace_overhead",
	}
)

// metricName is the benchmark's metric-name grammar.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics in the order they are set.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric; an invalid name or a duplicate is a bug in the
// benchmark and panics.
func (r *report) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("invalid metric name %q", name))
	}
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("metric %q set twice", name))
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// expect fails unless the report holds exactly names, in order.
func (r *report) expect(names []string) error {
	if strings.Join(r.names, ",") != strings.Join(names, ",") {
		return fmt.Errorf("reported metrics %v, declared %v", r.names, names)
	}
	return nil
}

// result is the run's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric by name with its unit, then the JSON result
// as the last line.
func (r *report) print(w io.Writer, res result) error {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	res.Metrics = r.metrics
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
