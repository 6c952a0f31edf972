package main

import (
	"fmt"
	"time"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

// The paper's two-counter evaluation topology (§4.1): A counts field 0,
// B counts field 1, A→B is fields-grouped on field 1.
const (
	opA = "A"
	opB = "B"
)

// maxInFlight bounds injected-but-unprocessed tuples: the closed loop's
// window, and far above what the open-loop rates keep in flight.
const maxInFlight = 1 << 12

// sketchCapacity is NewApp's default per-instance pair-sketch capacity.
const sketchCapacity = 1 << 14

// deployConfig selects one deployment of the topology.
type deployConfig struct {
	servers     int // also the parallelism of A and B
	tcp         bool
	hashRouting bool // engine.FieldsHash instead of routing tables
}

// system is one deployed application: the engine and the manager built
// with the same calls locastream.NewApp makes, kept separate so the
// benchmark can read WireStats and time the manager's steps.
type system struct {
	topo     *topology.Topology
	place    *cluster.Placement
	live     *engine.Live
	mgr      *core.Manager
	opt      *core.Optimizer // the traced reconfiguration's optimizer
	policyA  routing.Policy  // the source hop into A
	policyAB routing.Policy  // the A→B edge
	rec      *recorder
}

// sink is operator B: the paper's Counter on field 1 that also stamps
// each tuple's arrival for the latency recorder.
type sink struct {
	*topology.Counter
	rec *recorder
}

func (s *sink) Process(t topology.Tuple, emit topology.Emit) {
	s.Counter.Process(t, emit)
	s.rec.arrive(t.Field(fieldSeq))
}

// recorder stores, for each open-loop phase's range of sequence
// numbers, the instant B processed each tuple (nanoseconds since base).
// Each of those tuples is injected once, so each slot is written by
// exactly one executor; slots are read only after Drain.
type recorder struct {
	base   time.Time
	phases []phaseTimes
}

type phaseTimes struct {
	lo uint32  // sequence number of the phase's first tuple
	at []int64 // arrival per tuple of the phase, 0 until it arrives
}

func (r *recorder) arrive(s string) {
	seq, ok := decodeSeq(s)
	if !ok {
		return
	}
	for _, ph := range r.phases {
		if seq-ph.lo < uint32(len(ph.at)) {
			ph.at[seq-ph.lo] = int64(time.Since(r.base))
			return
		}
	}
}

func deploy(cfg deployConfig, rec *recorder) (*system, error) {
	topo, err := topology.NewBuilder("eval").
		AddOperator(topology.Operator{Name: opA, Parallelism: cfg.servers, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(fieldA) }}).
		AddOperator(topology.Operator{Name: opB, Parallelism: cfg.servers, Stateful: true,
			New: func() topology.Processor { return &sink{Counter: topology.NewCounter(fieldB), rec: rec} }}).
		SetSource(opA).
		Connect(opA, opB, topology.Fields, fieldB).
		Build()
	if err != nil {
		return nil, err
	}
	place, err := cluster.NewRoundRobin(topo, cfg.servers)
	if err != nil {
		return nil, err
	}
	mode := engine.FieldsTable
	if cfg.hashRouting {
		mode = engine.FieldsHash
	}
	policies, err := engine.NewPolicies(topo, place, mode)
	if err != nil {
		return nil, err
	}
	src, err := engine.NewSourcePolicy(topo, place, topology.Fields, mode)
	if err != nil {
		return nil, err
	}
	live, err := engine.NewLive(engine.LiveConfig{
		Topology:       topo,
		Placement:      place,
		Policies:       policies,
		SourcePolicy:   src,
		SourceGrouping: topology.Fields,
		SourceKeyField: fieldA,
		SketchCapacity: sketchCapacity,
		MaxInFlight:    maxInFlight,
		TCPTransport:   cfg.tcp,
	})
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(live, topo, place, core.ManagerOptions{})
	if err != nil {
		live.Stop()
		return nil, err
	}
	opt, err := core.NewOptimizer(topo, place, core.OptimizerOptions{})
	if err != nil {
		live.Stop()
		return nil, err
	}
	return &system{
		topo: topo, place: place, live: live, mgr: mgr, opt: opt,
		policyA: src, policyAB: policies[engine.EdgeKey(opA, opB)], rec: rec,
	}, nil
}

// reconfigStep is what one traced reconfiguration measured.
type reconfigStep struct {
	total      time.Duration
	stats      []engine.PairStat
	keysMoved  int
	expLocal   float64
	pairsTotal int
}

// reconfigure runs one round of Algorithm 1. Untraced, it is exactly
// App.Reconfigure (Manager.Reconfigure). Traced, it runs the same three
// steps — collect, compute, deploy — as separate calls with a span
// around each, and keeps the statistics for the offline replays.
func (s *system) reconfigure(tr *tracer) (reconfigStep, error) {
	start := time.Now()
	if tr == nil {
		_, err := s.mgr.Reconfigure()
		return reconfigStep{total: time.Since(start)}, err
	}
	root := tr.begin("core.reconfig", 0)
	sp := tr.begin("core.collect", root)
	stats := s.live.CollectPairStats()
	tr.end(sp)
	sp = tr.begin("core.compute", root)
	tables, plan, err := s.opt.ComputeTables(stats)
	tr.end(sp)
	if err != nil {
		return reconfigStep{}, fmt.Errorf("compute tables: %w", err)
	}
	current := s.mgr.Tables()
	moved := 0
	for op, t := range tables {
		moved += len(core.DiffTables(current[op], t, op, s.place.Parallelism(op)))
	}
	sp = tr.begin("core.deploy", root)
	err = s.mgr.DeployCandidate(&core.Candidate{Tables: tables, Plan: plan})
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return reconfigStep{}, fmt.Errorf("deploy: %w", err)
	}
	pairs := 0
	for _, st := range stats {
		pairs += len(st.Pairs)
	}
	return reconfigStep{total: time.Since(start), stats: stats, keysMoved: moved,
		expLocal: plan.ExpectedLocality, pairsTotal: pairs}, nil
}
