package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/transport"
)

// extraPeak is the length of the closed loops of the single-server
// baseline and of the two routing variants of la_over_hash.
func (r *run) extraPeak() time.Duration { return r.peakDur() / 3 }

// layerMetrics derives the per-layer metrics from a traced run, adding
// the replays and reference runs the layers need.
func (r *run) layerMetrics(sys *system, gen *generator, w *window) (*report, error) {
	rep := newReport()

	// engine
	rep.set("engine.inject_wait_ms", "ms", float64(w.injectNs)/1e6)
	rep.set("engine.inflight_max", "count", float64(w.inflightMax))
	loads := make([]uint64, servers)
	for i := range loads {
		loads[i] = w.after.Loads[opB][i] - w.before.Loads[opB][i]
	}
	rep.set("engine.load_imbalance", "ratio", metrics.Imbalance(loads))
	single, err := r.referencePeak("engine.single_server", r.in, r.pools[0], deployConfig{servers: 1})
	if err != nil {
		return nil, err
	}
	rep.set("engine.single_server_tps", "1/s", single)

	// routing
	routeNs, fallback := r.routeReplay(sys)
	rep.set("routing.route_ns", "ns", routeNs)
	rep.set("routing.hash_fallback_frac", "fraction", fallback)
	ratio, err := r.laOverHash()
	if err != nil {
		return nil, err
	}
	rep.set("routing.la_over_hash", "ratio", ratio)

	// spacesaving
	rep.set("spacesaving.add_ns", "ns", r.sketchReplay())
	rep.set("spacesaving.pairs_tracked", "count", medianOf(w.steps, func(s reconfigStep) float64 { return float64(s.pairsTotal) }))

	// core: self times of the spans recorded under load
	self := selfTimes(r.tr.between(w.firstSpan, w.lastSpan))
	for _, name := range []string{"collect", "compute", "deploy"} {
		rep.set("core."+name+"_ms", "ms", medianDuration(self["core."+name]).Seconds()*1e3)
	}
	rep.set("core.keys_moved", "count", medianOf(w.steps, func(s reconfigStep) float64 { return float64(s.keysMoved) }))
	rep.set("core.expected_locality", "fraction", medianOf(w.steps, func(s reconfigStep) float64 { return s.expLocal }))

	// keygraph and partition, replayed on the statistics each
	// reconfiguration collected
	rp := r.computeReplay(w.steps)
	rep.set("keygraph.build_ms", "ms", rp.buildMs)
	rep.set("keygraph.vertices", "count", rp.vertices)
	rep.set("keygraph.edges", "count", rp.edges)
	rep.set("partition.ms", "ms", rp.partitionMs)
	rep.set("partition.cut_frac", "fraction", rp.cutFrac)
	rep.set("partition.imbalance", "ratio", rp.imbalance)

	// transport: deltas over the timed window
	ws := wireDelta(w.before.Wire, w.after.Wire)
	transfers := w.after.Fields.Total() - w.before.Fields.Total()
	rep.set("transport.tuples_sent", "count", float64(ws.TuplesSent))
	rep.set("transport.sent_per_transfer", "fraction", float64(ws.TuplesSent)/float64(max(1, transfers)))
	rep.set("transport.bytes_per_tuple", "B", ws.WireBytesPerTuple())
	rep.set("transport.tuples_per_frame", "count", ws.TuplesPerFrame())
	rep.set("transport.syscalls_per_flush", "ratio", ws.SyscallsPerFlush())
	rep.set("transport.frames_per_writev", "ratio", ws.FramesPerWritev())
	rep.set("transport.encode_ns_per_tuple", "ns", ws.EncodeNsPerTuple())
	rep.set("transport.compression_ratio", "ratio", ws.CompressionRatio())
	rep.set("transport.dict_hit_rate", "fraction", ws.DictHitRate())
	rep.set("transport.flush_size", "count", float64(ws.FlushSize))
	rep.set("transport.flush_timer", "count", float64(ws.FlushTimer))
	rep.set("transport.flush_control", "count", float64(ws.FlushControl))
	sendNs, err := r.sendReplay(sys)
	if err != nil {
		return nil, err
	}
	rep.set("transport.send_ns", "ns", sendNs)

	// harness
	sums, err := r.latencies(w)
	if err != nil {
		return nil, err
	}
	rep.set("lat_p50_ms.high", "ms", sums[1].p50)
	rep.set("lat_p99_ms.low", "ms", sums[0].p99)
	rep.set("lat_p99_ms.high", "ms", sums[1].p99)
	late := append([]float64(nil), w.lateMs...)
	sort.Float64s(late)
	rep.set("harness.late_ms", "ms", percentile(late, 99))
	rep.set("harness.trace_overhead", "fraction", r.traceOverhead(sys, gen))
	return rep, nil
}

// overheadPairs closed loops run untraced and traced, alternately, to
// estimate what tracing costs the generator and the engine.
const overheadPairs = 3

// traceOverhead is the median, over alternating pairs of short closed
// loops, of untraced over traced throughput, minus one.
func (r *run) traceOverhead(sys *system, gen *generator) float64 {
	d := r.peakDur() / (3 * overheadPairs)
	ratios := make([]float64, overheadPairs)
	for i := range ratios {
		gen.traced = false
		untraced := gen.closedLoop(r.pools[0], d)
		gen.traced = true
		smp := startSampler(sys, true)
		traced := gen.closedLoop(r.pools[0], d)
		smp.finish()
		ratios[i] = untraced/traced - 1
	}
	return median(ratios)
}

func medianOf(steps []reconfigStep, f func(reconfigStep) float64) float64 {
	v := make([]float64, len(steps))
	for i, s := range steps {
		v[i] = f(s)
	}
	return median(v)
}

// referencePeak deploys a second system, warms it up (reconfiguring
// unless it hash-routes) and returns its closed-loop throughput on pool.
// The deployment is checked like the main one.
func (r *run) referencePeak(name string, in *input, pool *stream, cfg deployConfig) (float64, error) {
	parent := r.tr.begin(name, 0)
	defer r.tr.end(parent)
	sys, err := deploy(cfg, &recorder{base: time.Now()})
	if err != nil {
		return 0, fmt.Errorf("%s: deploy: %w", name, err)
	}
	defer sys.live.Stop()
	gen := newGenerator(sys, in, false)
	gen.warm(pool)
	if !cfg.hashRouting {
		if _, err := sys.reconfigure(nil); err != nil {
			return 0, fmt.Errorf("%s: reconfigure: %w", name, err)
		}
	}
	tps := gen.closedLoop(pool, r.extraPeak())
	c, err := gen.check(in)
	if err != nil {
		return 0, err
	}
	if !c.ok() {
		return 0, fmt.Errorf("%s: exact-count check failed: %v", name, c.mismatches)
	}
	return tps, nil
}

// laOverHash is the live twin of Figs. 8/9: closed-loop throughput with
// locality-aware tables over hash routing, on the workload's input (at
// locality 0.8 for synth-local).
func (r *run) laOverHash() (float64, error) {
	in := newInput(r.seed, r.spec.payload)
	src := r.spec.source
	if r.spec.laSource != nil {
		src = r.spec.laSource
	}
	pool := in.take(r.spec.pool, src(r.seed).pairs())
	la, err := r.referencePeak("routing.la", in, pool, deployConfig{servers: servers, tcp: true})
	if err != nil {
		return 0, err
	}
	hash, err := r.referencePeak("routing.hash", in, pool, deployConfig{servers: servers, tcp: true, hashRouting: true})
	if err != nil {
		return 0, err
	}
	return la / hash, nil
}

// routeReplay replays the high-rate phase's B keys through the deployed
// A→B routing policy: ns per Route, and the share of keys the table does
// not hold (hash fallback).
func (r *run) routeReplay(sys *system) (ns, fallback float64) {
	tf := sys.policyAB.(*routing.TableFields)
	assign := tf.Snapshot().Assign
	keys := make([]string, r.high.len())
	missing := 0
	for i, k := range r.high.kb {
		keys[i] = r.in.keysB[k]
		if _, ok := assign[keys[i]]; !ok {
			missing++
		}
	}
	const rounds = 20
	var sinkInst int
	sp := r.tr.begin("routing.route", 0)
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for i, k := range keys {
			sinkInst += tf.Route(k, 0, uint64(i))
		}
	}
	el := time.Since(start)
	r.tr.end(sp)
	routeSink.Store(int64(sinkInst))
	return float64(el) / float64(rounds*len(keys)), float64(missing) / float64(len(keys))
}

var routeSink atomic.Int64

// sketchReplay replays the high-rate phase's key pairs through a fresh
// pair sketch of the engine's per-instance capacity: ns per Add.
func (r *run) sketchReplay() float64 {
	sk := spacesaving.NewPairs(sketchCapacity)
	sp := r.tr.begin("spacesaving.add", 0)
	start := time.Now()
	for i := 0; i < r.high.len(); i++ {
		sk.Add(r.in.keysA[r.high.ka[i]], r.in.keysB[r.high.kb[i]])
	}
	el := time.Since(start)
	r.tr.end(sp)
	return float64(el) / float64(max(1, r.high.len()))
}

// replay holds the medians of the offline key-graph and partition
// replays.
type replay struct {
	buildMs, vertices, edges        float64
	partitionMs, cutFrac, imbalance float64
}

// computeReplay rebuilds the key graph and reruns the partitioner on the
// statistics each reconfiguration collected, with the optimizer's
// default options, one span per step under a parent compute span.
func (r *run) computeReplay(steps []reconfigStep) replay {
	var build, part, verts, edges, cuts, imbs []float64
	for _, st := range steps {
		parent := r.tr.begin("core.compute.replay", 0)
		var (
			g   *keygraph.Graph
			pg  *partition.Graph
			res *partition.Result
			err error
		)
		b := r.tr.begin("keygraph.build", parent)
		g = keygraph.New()
		for _, ps := range st.stats {
			g.AddPairs(ps.FromOp, ps.ToOp, ps.Pairs, 0)
		}
		if g.NumVertices() > 0 {
			_, weights, adjRaw := g.CSR()
			adj := make([][]partition.Adj, len(adjRaw))
			for i, list := range adjRaw {
				adj[i] = make([]partition.Adj, len(list))
				for j, a := range list {
					adj[i][j] = partition.Adj{To: a.To, Weight: a.Weight}
				}
			}
			pg = &partition.Graph{Weights: weights, Adj: adj}
		}
		r.tr.end(b)
		p := r.tr.begin("partition", parent)
		if pg != nil {
			res, err = partition.Partition(pg, partition.Options{K: servers, Alpha: partition.DefaultAlpha})
		}
		r.tr.end(p)
		r.tr.end(parent)
		self := selfTimes(r.tr.between(parent-1, p))
		build = append(build, ms(self["keygraph.build"]))
		part = append(part, ms(self["partition"]))
		verts = append(verts, float64(g.NumVertices()))
		edges = append(edges, float64(g.NumEdges()))
		if res != nil && err == nil {
			if tw := g.TotalEdgeWeight(); tw > 0 {
				cuts = append(cuts, float64(res.CutWeight)/float64(tw))
			}
			imbs = append(imbs, res.Imbalance)
		}
	}
	return replay{buildMs: median(build), vertices: median(verts), edges: median(edges),
		partitionMs: median(part), cutFrac: median(cuts), imbalance: median(imbs)}
}

func ms(ds []time.Duration) float64 {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total.Seconds() * 1e3
}

// sendReplay replays the high-rate phase's cross-server A→B transfers,
// under the deployed tables, through a fresh four-node fabric with the
// engine's transport options: ns per Fabric.Send, counted until every
// message has been received.
func (r *run) sendReplay(sys *system) (float64, error) {
	tf := sys.policyAB.(*routing.TableFields)
	type hop struct {
		from, to int
		msg      transport.Message
	}
	var hops []hop
	for i := 0; i < r.high.len(); i++ {
		t := r.high.tuple(i)
		a, b := t.Values[fieldA], t.Values[fieldB]
		ia, ib := sys.policyA.Route(a, -1, 0), tf.Route(b, 0, 0)
		from, to := sys.place.ServerOf(opA, ia), sys.place.ServerOf(opB, ib)
		if from == to {
			continue
		}
		hops = append(hops, hop{from, to, transport.Message{Kind: transport.KindData,
			To: transport.Addr{Op: opB, Instance: ib}, Values: t.Values, KeyOp: opB, Key: b}})
	}
	if len(hops) == 0 {
		return 0, nil
	}
	var received atomic.Int64
	done := make(chan struct{})
	want := int64(len(hops))
	note := func(n int) {
		if received.Add(int64(n)) == want {
			close(done)
		}
	}
	fab, err := transport.NewFabricWith(servers, func(int, transport.Message) { note(1) },
		transport.NodeOptions{BatchHandler: func(_ int, msgs []transport.Message) { note(len(msgs)) }})
	if err != nil {
		return 0, fmt.Errorf("send replay: %w", err)
	}
	defer fab.Close()
	sp := r.tr.begin("transport.send", 0)
	start := time.Now()
	for _, h := range hops {
		if err := fab.Send(h.from, h.to, h.msg); err != nil {
			return 0, fmt.Errorf("send replay: %w", err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("send replay: %d of %d messages received", received.Load(), want)
	}
	el := time.Since(start)
	r.tr.end(sp)
	return float64(el) / float64(len(hops)), nil
}

// wireDelta subtracts two cumulative WireStats snapshots, field by
// field, for every counter the transport metrics read.
func wireDelta(a, b metrics.WireStats) metrics.WireStats {
	return metrics.WireStats{
		FramesSent:    b.FramesSent - a.FramesSent,
		TuplesSent:    b.TuplesSent - a.TuplesSent,
		BytesSent:     b.BytesSent - a.BytesSent,
		FlushSize:     b.FlushSize - a.FlushSize,
		FlushTimer:    b.FlushTimer - a.FlushTimer,
		FlushControl:  b.FlushControl - a.FlushControl,
		FlushClose:    b.FlushClose - a.FlushClose,
		WritevCalls:   b.WritevCalls - a.WritevCalls,
		WritevFrames:  b.WritevFrames - a.WritevFrames,
		RawBytesSent:  b.RawBytesSent - a.RawBytesSent,
		DictBytesSent: b.DictBytesSent - a.DictBytesSent,
		DictHits:      b.DictHits - a.DictHits,
		DictMisses:    b.DictMisses - a.DictMisses,
		EncodeNanos:   b.EncodeNanos - a.EncodeNanos,
	}
}
