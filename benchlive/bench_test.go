package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99}, {10_000_000, 99.99},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
}

func TestSummarizeStatesSampleCountAndRefusesThinTails(t *testing.T) {
	if _, err := summarize(make([]float64, 999)); err == nil {
		t.Fatal("999 samples accepted for p99")
	}
	s := make([]float64, 20_000)
	for i := range s {
		s[i] = float64(i % 100)
	}
	sum, err := summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	if sum.n != 20_000 || sum.top != 99.9 || sum.p50 != 49 || sum.p99 != 98 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range append(append([]string(nil), endToEndNames...), layerNames...) {
		if !metricName.MatchString(name) {
			t.Errorf("declared metric %q is not a valid name", name)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "lat p50", "a/b", "ms(p99)", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("invalid name %q accepted", bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("report.set accepted %q", bad)
				}
			}()
			newReport().set(bad, "ms", 1)
		}()
	}
}

// TestBenchmarkJSONMatchesDeclaredMetrics keeps BENCHMARK.json and the
// names the program reports in step.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) string {
		out := make([]string, len(list))
		for i, m := range list {
			out[i] = m.Name
		}
		return strings.Join(out, ",")
	}
	if got, want := names(cfg.EndToEnd), strings.Join(endToEndNames, ","); got != want {
		t.Errorf("end_to_end = %s, program reports %s", got, want)
	}
	if got, want := names(cfg.PerLayer), strings.Join(layerNames, ","); got != want {
		t.Errorf("per_layer = %s, program reports %s", got, want)
	}
	var specs []string
	for _, w := range workloads {
		specs = append(specs, w.name)
	}
	if got, want := names(cfg.Workloads), strings.Join(specs, ","); got != want {
		t.Errorf("workloads = %s, program runs %s", got, want)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	if got := self["parent"]; len(got) != 1 || got[0] != 50 {
		t.Errorf("parent self time %v, want [50ns]", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != 25 || got[1] != 20 {
		t.Errorf("child self times %v, want [25ns 20ns]", got)
	}
}

// smallSystem deploys the topology on two in-memory servers and warms it
// with a short synthetic stream.
func smallSystem(t *testing.T) (*input, *stream, *generator) {
	t.Helper()
	in := newInput(7, 64)
	s := in.take(2000, synthSource(16, 0.9, 7).pairs())
	sys, err := deploy(deployConfig{servers: 2}, &recorder{base: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.live.Stop)
	gen := newGenerator(sys, in, false)
	gen.warm(s)
	if _, err := sys.reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	gen.warm(s)
	return in, s, gen
}

func TestExactCountCheckPasses(t *testing.T) {
	in, _, gen := smallSystem(t)
	c, err := gen.check(in)
	if err != nil {
		t.Fatal(err)
	}
	if !c.ok() || c.injected != 4000 {
		t.Fatalf("clean run failed the check: %+v", c)
	}
}

func TestExactCountCheckCatchesDroppedTuple(t *testing.T) {
	in, s, gen := smallSystem(t)
	// The generator records a tuple that never reaches the engine.
	gen.refA[s.ka[0]]++
	gen.refB[s.kb[0]]++
	c, err := gen.check(in)
	if err != nil {
		t.Fatal(err)
	}
	if c.ok() || c.missingB != 1 || c.failed() != 1 || len(c.mismatches) != 2 {
		t.Fatalf("dropped tuple not caught: %+v", c)
	}
}

func TestExactCountCheckCatchesUnexpectedTuple(t *testing.T) {
	in, s, gen := smallSystem(t)
	// A tuple reaches the engine behind the generator's back.
	if err := gen.sys.live.Inject(s.tuple(0)); err != nil {
		t.Fatal(err)
	}
	c, err := gen.check(in)
	if err != nil {
		t.Fatal(err)
	}
	if c.ok() || len(c.mismatches) != 2 {
		t.Fatalf("extra tuple not caught: %+v", c)
	}
}

func TestInputsAreSeededAndPayloadsDistinct(t *testing.T) {
	a, b := newInput(3, 256), newInput(3, 256)
	sa := a.take(1000, twitterSource(3, 100).pairs())
	sb := b.take(1000, twitterSource(3, 100).pairs())
	seen := make(map[string]bool)
	for i := 0; i < sa.len(); i++ {
		ta, tb := sa.tuple(i), sb.tuple(i)
		for f := range ta.Values {
			if ta.Values[f] != tb.Values[f] {
				t.Fatalf("tuple %d field %d differs between equal seeds", i, f)
			}
		}
		if seen[ta.Values[fieldPayload]] {
			t.Fatalf("payload of tuple %d repeats", i)
		}
		seen[ta.Values[fieldPayload]] = true
		if seq, ok := decodeSeq(ta.Values[fieldSeq]); !ok || seq != uint32(i) {
			t.Fatalf("tuple %d carries sequence %d", i, seq)
		}
	}
}
