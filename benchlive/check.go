package main

import (
	"fmt"

	"github.com/locastream/locastream/internal/topology"
)

// checkResult is the exact-result check's verdict after a drain.
type checkResult struct {
	injected   uint64 // tuples Inject accepted
	injectErrs uint64
	lost       uint64 // engine TuplesLost
	wireDrops  uint64
	missingB   uint64 // tuples injected but never counted at B
	mismatches []string
}

func (c checkResult) failed() uint64 {
	return c.injectErrs + c.lost + c.wireDrops + c.missingB
}

func (c checkResult) ok() bool { return c.failed() == 0 && len(c.mismatches) == 0 }

// countsOf sums one operator's per-key Counter state over its instances.
func countsOf(sys *system, op string) (map[string]uint64, error) {
	got := make(map[string]uint64)
	for inst := 0; inst < sys.place.Parallelism(op); inst++ {
		err := sys.live.ProcessorState(op, inst, func(p topology.Processor) {
			c := counterOf(p)
			for _, k := range c.StateKeys() {
				got[k] += c.Count(k)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

func counterOf(p topology.Processor) *topology.Counter {
	if s, ok := p.(*sink); ok {
		return s.Counter
	}
	return p.(*topology.Counter)
}

// compareCounts compares reference against observed counts key by key,
// returning at most a few human-readable mismatches, and the total of
// reference tuples missing from observed.
func compareCounts(op string, keys []string, ref []uint64, got map[string]uint64) (missing uint64, mismatches []string) {
	seen := 0
	for i, k := range keys {
		want, have := ref[i], got[k]
		if have > 0 {
			seen++
		}
		if want == have {
			continue
		}
		if want > have {
			missing += want - have
		}
		if len(mismatches) < 5 {
			mismatches = append(mismatches, fmt.Sprintf("%s[%q] = %d, want %d", op, k, have, want))
		}
	}
	if seen != len(got) && len(mismatches) < 5 {
		mismatches = append(mismatches, fmt.Sprintf("%s holds %d keys never injected", op, len(got)-seen))
	}
	return missing, mismatches
}

// check drains the system and compares its state against the
// generator's reference counts.
func (g *generator) check(in *input) (checkResult, error) {
	g.sys.live.Drain()
	st := g.sys.live.StatsSnapshot()
	res := checkResult{injected: uint64(g.accepted.Load()), injectErrs: g.errors, lost: st.TuplesLost, wireDrops: st.WireDrops}
	for _, side := range []struct {
		op   string
		keys []string
		ref  []uint64
	}{{opA, in.keysA, g.refA}, {opB, in.keysB, g.refB}} {
		got, err := countsOf(g.sys, side.op)
		if err != nil {
			return res, err
		}
		missing, mm := compareCounts(side.op, side.keys, side.ref, got)
		if side.op == opB {
			res.missingB = missing
		}
		res.mismatches = append(res.mismatches, mm...)
	}
	return res, nil
}
