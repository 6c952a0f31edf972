package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/locastream/locastream/internal/engine"
)

const (
	servers   = 4 // servers, and instances per operator
	setupReps = 5 // set-ups per untraced run; setup_s is their median
)

// run is one invocation: a workload, a seed and a run length.
type run struct {
	spec workloadSpec
	seed int64
	dur  time.Duration
	tr   *tracer // nil when untraced

	in        *input
	warms     []*stream // one per set-up; the last one feeds the measured deployment
	pools     []*stream // one per closed-loop segment
	low, high *stream
	highAt    []int64 // reconfigure indices in the high-rate phase, relative to its start
}

// Phase lengths as shares of --seconds, in the order they run: the low
// open-loop rate, the closed loop, the high open-loop rate.
func (r *run) lowDur() time.Duration  { return r.dur * 3 / 10 }
func (r *run) peakDur() time.Duration { return r.dur * 3 / 10 }
func (r *run) highDur() time.Duration { return r.dur * 4 / 10 }

// prepare generates every input of the run from the seed, before any
// timing starts.
func (r *run) prepare() {
	r.in = newInput(r.seed, r.spec.payload)
	next := r.spec.source(r.seed).pairs()
	for k := 0; k < setupReps; k++ {
		r.warms = append(r.warms, r.in.take(r.spec.warmup, next))
	}
	r.low = r.in.take(int(r.spec.rateLow*r.lowDur().Seconds()), next)
	for k := 0; k < peakSegments; k++ {
		r.pools = append(r.pools, r.in.take(r.spec.pool, next))
	}
	r.high = r.in.take(int(r.spec.rateHigh*r.highDur().Seconds()), next)
	r.highAt = midStretches(int(r.high.seq0), r.high.len(), r.spec.reconfigEvery)
}

// midStretches returns the indices j in [0, n) of a stream starting at
// global tuple offset off that fall in the middle of an every-tuple
// stretch (a week, for the drifting workload).
func midStretches(off, n, every int) []int64 {
	var at []int64
	for j := 0; j < n; j++ {
		if (off+j)%every == every/2 {
			at = append(at, int64(j))
		}
	}
	return at
}

// setup deploys the topology over TCP, injects a hash-routed warm-up
// and runs the first Reconfigure. Its duration is setup_s.
func (r *run) setup(warm *stream) (*system, *generator, time.Duration, error) {
	rec := &recorder{phases: []phaseTimes{
		{lo: r.low.seq0, at: make([]int64, r.low.len())},
		{lo: r.high.seq0, at: make([]int64, r.high.len())},
	}}
	start := time.Now()
	rec.base = start
	sys, err := deploy(deployConfig{servers: servers, tcp: true}, rec)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("deploy: %w", err)
	}
	gen := newGenerator(sys, r.in, r.tr != nil)
	gen.warm(warm)
	if _, err := sys.reconfigure(r.tr); err != nil {
		sys.live.Stop()
		return nil, nil, 0, fmt.Errorf("first reconfigure: %w", err)
	}
	return sys, gen, time.Since(start), nil
}

// window is what the timed phases measured.
type window struct {
	peakTps             float64   // closed-loop throughput, mean over the segments
	lowMs, highMs       []float64 // open-loop latencies
	lateMs              []float64 // generator lateness, both open-loop phases
	steps               []reconfigStep
	before, after       engine.Stats
	mid                 engine.Stats // snapshot at the start of the high-rate phase
	peakHeap            uint64
	inflightMax         int64
	injectNs            int64
	firstSpan, lastSpan int // spans of the open-loop phases: ids in (firstSpan, lastSpan]
}

// peakSegments is how many parts the closed loop is cut into, each
// cycling its own pool, with an untimed Reconfigure on the previous
// part's statistics in between. On synth-local a partition that splits
// one of the 64 key pairs costs about a third of the throughput, and
// whether the partitioner splits one depends on the statistics, hence
// on the seed: one partition per run would make peak_tps bimodal across
// seeds; the mean over several partitions is steady.
const peakSegments = 8

// timed runs the low-rate open loop, the closed loop and the high-rate
// open loop. The low rate comes first, right after set-up: its latency
// is undisturbed by the control plane, on tables fitted to the input
// just before it. The high rate runs the control plane under load:
// Reconfigure at fixed tuple indices. Each phase starts from a collected
// heap, so the garbage collector's cycles fall at the same points of
// every run instead of wherever the previous phase left the pacer.
func (r *run) timed(sys *system, gen *generator) (*window, error) {
	w := &window{before: sys.live.StatsSnapshot()}
	smp := startSampler(sys, r.tr != nil)
	defer smp.finish()

	gen.injectNs = 0
	if err := r.openPhase(sys, gen, w, 0, nil); err != nil {
		return nil, err
	}
	inject := gen.injectNs

	for k := 0; k < peakSegments; k++ {
		if k > 0 {
			if _, err := sys.reconfigure(r.tr); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		w.peakTps += gen.closedLoop(r.pools[k], r.peakDur()/peakSegments) / peakSegments
	}

	// Restart the statistics window, so the first Reconfigure under load
	// sees one stretch of the input like every later one rather than the
	// closed loop's cycled pools.
	sys.live.CollectPairStats()
	w.mid = sys.live.StatsSnapshot()
	if r.tr != nil {
		w.firstSpan = r.tr.count()
	}
	gen.injectNs = inject
	if err := r.openPhase(sys, gen, w, 1, r.highAt); err != nil {
		return nil, err
	}
	smp.finish()
	w.after = sys.live.StatsSnapshot()
	w.peakHeap, w.inflightMax, w.injectNs = smp.peakHeap, smp.inflightMax, gen.injectNs
	if r.tr != nil {
		w.lastSpan = r.tr.count()
	}
	if len(w.steps) == 0 {
		return nil, fmt.Errorf("no reconfiguration ran under load")
	}
	return w, nil
}

// openPhase runs open-loop phase p (0 low, 1 high), calling Reconfigure
// at the given tuple indices of the phase, and records its latencies,
// the generator's lateness and the reconfigurations.
func (r *run) openPhase(sys *system, gen *generator, w *window, p int, at []int64) error {
	s, rate, out := r.low, r.spec.rateLow, &w.lowMs
	if p == 1 {
		s, rate, out = r.high, r.spec.rateHigh, &w.highMs
	}
	base := gen.accepted.Load()
	abs := make([]int64, len(at))
	for i, j := range at {
		abs[i] = base + j
	}
	runtime.GC()
	rc := gen.reconfigureAt(abs, r.tr)
	due, late := gen.openLoop(s, rate)
	steps, err := rc.wait()
	w.steps = append(w.steps, steps...)
	if err != nil {
		return err
	}
	for i, d := range due {
		w.lateMs = append(w.lateMs, float64(late[i])/1e6)
		if got := sys.rec.phases[p].at[i]; got != 0 {
			*out = append(*out, float64(got-d)/1e6)
		}
	}
	return nil
}

// execute runs the whole benchmark for one workload and seed.
func (r *run) execute() (result, *report, error) {
	r.prepare()
	// Each untraced set-up warms up on a different stream, so setup_s —
	// dominated on twitter-drift by partitioning the warm-up statistics —
	// is a median over inputs as well as over repetitions. The traced run
	// sets up once, on the stream the untraced run measures with.
	warms := r.warms
	if r.tr != nil {
		warms = warms[len(warms)-1:]
	}
	var (
		setups []time.Duration
		checks []checkResult
		sys    *system
		gen    *generator
	)
	for i, warm := range warms {
		s, g, d, err := r.setup(warm)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, d)
		if i < len(warms)-1 {
			c, err := g.check(r.in)
			s.live.Stop()
			if err != nil {
				return result{}, nil, err
			}
			checks = append(checks, c)
			continue
		}
		sys, gen = s, g
	}
	defer sys.live.Stop()

	w, err := r.timed(sys, gen)
	if err != nil {
		return result{}, nil, err
	}
	c, err := gen.check(r.in)
	if err != nil {
		return result{}, nil, err
	}
	checks = append(checks, c)

	res := result{Correct: true}
	for _, c := range checks {
		res.Attempted += c.injected + c.injectErrs
		res.Failed += c.failed()
		if !c.ok() {
			res.Correct = false
			fmt.Printf("exact-count check FAILED: inject errors %d, lost %d, wire drops %d, missing at B %d; %s\n",
				c.injectErrs, c.lost, c.wireDrops, c.missingB, strings.Join(c.mismatches, "; "))
		}
	}
	fmt.Printf("workload %s seed %d: %d tuples injected, failed_frac %.6g, exact per-key counts %s\n",
		r.spec.name, r.seed, res.Attempted, float64(res.Failed)/float64(max(1, res.Attempted)), map[bool]string{true: "match", false: "DIFFER"}[res.Correct])

	var rep *report
	if r.tr != nil {
		if rep, err = r.layerMetrics(sys, gen, w); err == nil {
			err = rep.expect(layerNames)
		}
	} else {
		if rep, err = r.endToEnd(setups, w); err == nil {
			err = rep.expect(endToEndNames)
		}
	}
	return res, rep, err
}

// endToEnd derives the end-to-end metrics from an untraced run.
func (r *run) endToEnd(setups []time.Duration, w *window) (*report, error) {
	rep := newReport()
	rep.set("setup_s", "s", medianDuration(setups).Seconds())
	rep.set("peak_tps", "1/s", w.peakTps)
	sums, err := r.latencies(w)
	if err != nil {
		return nil, err
	}
	rep.set("lat_p50_ms.low", "ms", sums[0].p50)
	rep.set("locality", "fraction", windowLocality(w.mid, w.after))
	rt := make([]time.Duration, len(w.steps))
	for i, s := range w.steps {
		rt[i] = s.total
	}
	rep.set("reconfig_s", "s", medianDuration(rt).Seconds())
	rep.set("peak_heap_mb", "MiB", float64(w.peakHeap)/(1<<20))
	return rep, nil
}

// windowLocality is the share of fields transfers that stayed on one
// server between two snapshots: a delta, because the counters are
// cumulative from start-up and include the hash-routed warm-up. The
// end-to-end figure covers the high-rate phase, where the input flows in
// its generated order through the reconfigurations (the closed loop
// cycles fixed pools).
func windowLocality(before, after engine.Stats) float64 {
	local := after.Fields.LocalTuples - before.Fields.LocalTuples
	total := after.Fields.Total() - before.Fields.Total()
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}

// latencies summarizes the low- and high-rate phases and prints each
// one's tail: p99 and the highest percentile the sample count supports.
func (r *run) latencies(w *window) ([2]latencySummary, error) {
	var sums [2]latencySummary
	for i, ph := range []struct {
		name string
		ms   []float64
		rate float64
	}{{"low", w.lowMs, r.spec.rateLow}, {"high", w.highMs, r.spec.rateHigh}} {
		sum, err := summarize(ph.ms)
		if err != nil {
			return sums, fmt.Errorf("%s rate: %w", ph.name, err)
		}
		fmt.Printf("open loop %s: %.0f tuples/s, %d samples: p50 %.3f ms, p99 %.3f ms, p%g %.3f ms (highest percentile with >= %d samples beyond)\n",
			ph.name, ph.rate, sum.n, sum.p50, sum.p99, sum.top, sum.topValue, minTail)
		sums[i] = sum
	}
	return sums, nil
}
