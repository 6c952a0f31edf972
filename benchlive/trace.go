package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span
// that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer is the untraced run: callers test for nil and skip the
// clock reads entirely. Safe for concurrent use (the reconfiguration
// goroutine traces while the generator runs).
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count is the number of spans begun so far: the id of the latest.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// between returns a copy of the spans with ids in (from, to].
func (t *tracer) between(from, to int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[from:to]...)
}

// selfTimes returns, per span name, the self time of every span with
// that name: its duration minus the part of its interval covered by its
// child spans (overlapping children are merged, not double-counted).
func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(s, children[s.ID])))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
