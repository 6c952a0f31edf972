package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// generator is the single load-generating goroutine. It injects
// pre-generated tuples straight into the engine and keeps the reference
// per-key counts the exact-result check compares against.
type generator struct {
	sys      *system
	refA     []uint64 // per input key of A: tuples accepted by Inject
	refB     []uint64
	errors   uint64       // Inject calls that failed
	accepted atomic.Int64 // tuples accepted, read by the reconfiguration goroutine

	traced   bool
	injectNs int64 // traced: wall time spent inside Inject
}

func newGenerator(sys *system, in *input, traced bool) *generator {
	return &generator{sys: sys, refA: make([]uint64, len(in.keysA)), refB: make([]uint64, len(in.keysB)), traced: traced}
}

func (g *generator) inject(s *stream, i int) {
	var t0 time.Time
	if g.traced {
		t0 = time.Now()
	}
	err := g.sys.live.Inject(s.tuple(i))
	if g.traced {
		g.injectNs += int64(time.Since(t0))
	}
	if err != nil {
		g.errors++
		return
	}
	g.refA[s.ka[i]]++
	g.refB[s.kb[i]]++
	g.accepted.Add(1)
}

// warm injects a whole stream as fast as backpressure allows and drains.
func (g *generator) warm(s *stream) {
	for i := 0; i < s.len(); i++ {
		g.inject(s, i)
	}
	g.sys.live.Drain()
}

// closedLoop cycles s for d with at most maxInFlight tuples outstanding,
// drains, and returns the tuples completed per second over the phase,
// drain included.
func (g *generator) closedLoop(s *stream, d time.Duration) float64 {
	const checkEvery = 256
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for k := 0; k < checkEvery; k++ {
			g.inject(s, n%s.len())
			n++
		}
	}
	g.sys.live.Drain()
	return float64(n) / time.Since(start).Seconds()
}

// openLoop injects s at a fixed rate, each tuple at its due time
// start + i/rate regardless of how the system keeps up, then drains. It
// returns each tuple's due time (ns since the recorder's base) and how
// late the generator injected it.
func (g *generator) openLoop(s *stream, rate float64) (due, late []int64) {
	base := g.sys.rec.base
	interval := float64(time.Second) / rate
	start := int64(time.Since(base)) + int64(time.Millisecond)
	due = make([]int64, s.len())
	late = make([]int64, s.len())
	for i := 0; i < s.len(); {
		now := int64(time.Since(base))
		next := start + int64(float64(i)*interval)
		if now < next {
			time.Sleep(time.Duration(next - now))
			continue
		}
		// Inject everything that has fallen due.
		for i < s.len() {
			d := start + int64(float64(i)*interval)
			if d > now {
				break
			}
			due[i] = d
			late[i] = int64(time.Since(base)) - d
			g.inject(s, i)
			i++
		}
	}
	g.sys.live.Drain()
	return due, late
}

// reconfigurer calls Reconfigure from its own goroutine whenever the
// generator's accepted count passes one of the given tuple indices, so
// the generator's schedule never waits on the control plane.
type reconfigurer struct {
	wg    sync.WaitGroup
	stop  atomic.Bool
	steps []reconfigStep
	err   error
}

func (g *generator) reconfigureAt(at []int64, tr *tracer) *reconfigurer {
	r := &reconfigurer{}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for _, idx := range at {
			for g.accepted.Load() < idx {
				if r.stop.Load() {
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
			step, err := g.sys.reconfigure(tr)
			if err != nil {
				r.err = err
				return
			}
			r.steps = append(r.steps, step)
		}
	}()
	return r
}

// wait skips the indices the generator has not reached and returns once
// the reconfiguration in progress, if any, has finished.
func (r *reconfigurer) wait() ([]reconfigStep, error) {
	r.stop.Store(true)
	r.wg.Wait()
	return r.steps, r.err
}

// sampler polls the heap (and, traced, the engine's in-flight count)
// during the timed phases.
type sampler struct {
	once        sync.Once
	stop        chan struct{}
	done        chan struct{}
	peakHeap    uint64
	inflightMax int64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler(sys *system, traced bool) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.peakHeap = max(s.peakHeap, sample[0].Value.Uint64())
			if traced {
				s.inflightMax = max(s.inflightMax, sys.live.StatsSnapshot().InFlight)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; later calls do nothing.
func (s *sampler) finish() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
