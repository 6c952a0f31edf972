// Package partition implements a multilevel k-way graph partitioner in the
// spirit of Metis (Karypis & Kumar, SIAM J. Sci. Comput. 1998), which the
// reproduced paper uses to split the bipartite key graph across servers.
//
// The algorithm follows the classic three phases:
//
//  1. Coarsening: repeated heavy-edge matching, plus two-hop matching of
//     vertices that share a neighbour, collapses matched vertex pairs
//     until the graph is small. As in METIS 5, a match may not create a
//     vertex heavier than 1.5 * total / CoarsenTo, and coarsening stops
//     once a level keeps more than 85 % of its vertices, so Zipf-skewed
//     key graphs coarsen in O(log n) levels.
//  2. Initial partitioning: greedy balanced assignment of the coarse
//     vertices in descending weight order, preferring the part with the
//     strongest connection.
//  3. Uncoarsening: the partition is projected back level by level and
//     improved with Fiduccia–Mattheyses-style boundary refinement under
//     the balance constraint load(part) <= alpha * total / k.
//
// The three phases run twice with different random matchings and the
// better partition is kept, unless the graph is not coarsened at all. The
// partitioner is deterministic for a fixed Options.Seed.
package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Adj is one adjacency entry of the input graph.
type Adj struct {
	// To is the neighbour vertex index.
	To int
	// Weight is the edge weight (co-occurrence count).
	Weight uint64
}

// Graph is the partitioner input: a symmetric weighted graph in adjacency
// list form. Adj[u] must contain an entry {v, w} exactly when Adj[v]
// contains {u, w}. Parallel entries to the same neighbour are allowed and
// treated additively.
type Graph struct {
	// Weights holds one non-negative weight per vertex.
	Weights []uint64
	// Adj holds the adjacency list of each vertex.
	Adj [][]Adj
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Weights) }

// TotalWeight returns the sum of vertex weights.
func (g *Graph) TotalWeight() uint64 {
	var t uint64
	for _, w := range g.Weights {
		t += w
	}
	return t
}

// Options configures Partition.
type Options struct {
	// K is the number of parts (servers). Must be >= 1.
	K int
	// Alpha is the imbalance bound: every part's vertex weight must stay
	// below Alpha * total / K whenever feasible. Values < 1 are raised
	// to 1. The paper uses Metis' default of 1.03.
	Alpha float64
	// Seed makes tie-breaking deterministic.
	Seed int64
	// Rand, when non-nil, supplies the tie-breaking randomness instead of
	// a Seed-derived source. Threading an explicit *rand.Rand makes a
	// sequence of related plans (e.g. the churn and skew drills, or the
	// per-rack sub-partitions of Hierarchical) reproducible end to end:
	// the caller owns the stream of random values, so identical inputs
	// yield identical plans across runs and test processes. The generator
	// is consumed sequentially and must not be shared with concurrent
	// callers.
	Rand *rand.Rand
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices. Zero selects max(64, 16*K).
	CoarsenTo int
	// RefinePasses bounds the number of refinement sweeps per level.
	// Zero selects 8; negative values disable refinement entirely
	// (useful for ablations).
	RefinePasses int
	// TargetFractions optionally sets unequal part sizes: part p may
	// hold up to Alpha * total * TargetFractions[p] vertex weight. nil
	// means uniform (1/K each). Must have length K and sum to ~1.
	TargetFractions []float64
	// Pinned optionally fixes vertices to parts: Pinned[v] == p >= 0
	// forces vertex v into part p (it is never moved by any phase),
	// while -1 leaves v free. nil means all vertices are free. Must
	// have length NumVertices. Pinning disables coarsening, so it is
	// meant for small graphs — e.g. failure-recovery repair, where the
	// dead server's keys are free and their surviving neighbours are
	// pinned in place so only the failed keys move.
	Pinned []int
}

// DefaultAlpha is the balance bound used by the paper (Metis default).
const DefaultAlpha = 1.03

// Result is the output of Partition.
type Result struct {
	// Parts assigns each input vertex to a part in [0, K).
	Parts []int
	// CutWeight is the total weight of edges whose endpoints are in
	// different parts.
	CutWeight uint64
	// PartWeights is the vertex weight of each part.
	PartWeights []uint64
	// Imbalance is max(PartWeights) / (total/K); 1.0 is perfect.
	Imbalance float64
}

// ErrBadGraph reports a malformed input graph.
var ErrBadGraph = errors.New("partition: malformed graph")

// Partition splits g into opts.K parts minimizing edge cut under the
// balance constraint.
func Partition(g *Graph, opts Options) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("partition: K = %d, want >= 1", opts.K)
	}
	if opts.TargetFractions != nil {
		if len(opts.TargetFractions) != opts.K {
			return nil, fmt.Errorf("partition: %d target fractions for K = %d",
				len(opts.TargetFractions), opts.K)
		}
		for p, f := range opts.TargetFractions {
			if f <= 0 {
				return nil, fmt.Errorf("partition: target fraction %f for part %d", f, p)
			}
		}
	}
	if opts.Pinned != nil {
		if len(opts.Pinned) != g.NumVertices() {
			return nil, fmt.Errorf("partition: %d pins for %d vertices",
				len(opts.Pinned), g.NumVertices())
		}
		for v, p := range opts.Pinned {
			if p < -1 || p >= opts.K {
				return nil, fmt.Errorf("partition: vertex %d pinned to part %d, want [-1, %d)",
					v, p, opts.K)
			}
		}
	}
	if opts.Alpha < 1 {
		opts.Alpha = 1
	}
	if opts.CoarsenTo <= 0 {
		opts.CoarsenTo = 16 * opts.K
		if opts.CoarsenTo < 64 {
			opts.CoarsenTo = 64
		}
	}
	switch {
	case opts.RefinePasses == 0:
		opts.RefinePasses = 8
	case opts.RefinePasses < 0:
		opts.RefinePasses = 0
	}

	n := g.NumVertices()
	if n == 0 {
		return &Result{Parts: []int{}, PartWeights: make([]uint64, opts.K), Imbalance: 0}, nil
	}
	if opts.K == 1 {
		parts := make([]int, n)
		return summarize(g, parts, 1), nil
	}

	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	}

	ws := newWorkspace(g, opts.K)
	fine := ws.normalize(g)
	// Further runs only vary the random matchings, so a graph that is not
	// coarsened gets one.
	runs := multilevelRuns
	if opts.Pinned != nil || n <= opts.CoarsenTo {
		runs = 1
	}
	caps := capsFor(fine.TotalWeight(), opts)
	var (
		best   *Result
		bestEx int64
	)
	for run := 0; run < runs; run++ {
		res := summarize(g, multilevel(fine, opts, rng, ws), opts.K)
		ex := overload(res.PartWeights, caps)
		if best == nil || ex < bestEx || (ex == bestEx && res.CutWeight < best.CutWeight) {
			best, bestEx = res, ex
		}
	}
	return best, nil
}

// multilevel runs the three phases once on the normalized graph g.
func multilevel(g *Graph, opts Options, rng *rand.Rand, ws *workspace) []int {
	// Phase 1: coarsen.
	levels := coarsenLevels(g, opts, rng, ws)

	// Phase 2: initial partition of the coarsest level.
	coarse := levels[len(levels)-1]
	parts := initialPartition(coarse.g, opts, rng)

	// Phase 3: refine and project back.
	parts = refine(coarse.g, parts, opts, ws)
	for i := len(levels) - 2; i >= 0; i-- {
		lvl := levels[i]
		fineParts := make([]int, lvl.g.NumVertices())
		for v := range fineParts {
			fineParts[v] = parts[lvl.coarseMap[v]]
		}
		parts = refine(lvl.g, fineParts, opts, ws)
	}
	return parts
}

type level struct {
	g         *Graph
	coarseMap []int // fine vertex -> coarse vertex at the next level
}

const (
	// coarsenWeightCap bounds the weight of a vertex a match may create
	// at coarsenWeightCap * total / CoarsenTo (METIS 5's maxvwgt).
	// Without it a Zipf hub of a star-like key graph absorbs one leaf per
	// level, and coarsening shrinks the graph by one vertex per level.
	coarsenWeightCap = 1.5
	// coarsenFraction stops coarsening after a level that keeps more than
	// this share of its vertices (METIS' COARSEN_FRACTION): further
	// levels would cost O(n + m) each for little shrink.
	coarsenFraction = 0.85
	// unmatchedFor2Hop is the share of a level that heavy-edge matching
	// may leave unmatched before two-hop matching runs (METIS'
	// UNMATCHEDFOR2HOP); see twoHopPasses.
	unmatchedFor2Hop = 0.10
	// fmStallMoves ends an FM pass after this many moves past the best
	// prefix (the hill-climbing limit of METIS' FM refinement), so a pass
	// over a large graph makes O(improving moves) moves, not n.
	fmStallMoves = 50
	// multilevelRuns is the number of independent multilevel runs, each
	// with its own random matchings, of which the best is kept (METIS'
	// ncuts). On the Twitter key graphs the live benchmark partitions,
	// two runs cut a few per cent less edge weight than one.
	multilevelRuns = 2
)

// twoHopPasses are METIS 5's two-hop matching passes: while more than
// unmatched * unmatchedFor2Hop of a level is still unmatched, pair the
// unmatched vertices of degree below maxDegree that share a neighbour —
// first the leaves, then degree-2 vertices, then any.
var twoHopPasses = [...]struct {
	unmatched float64
	maxDegree int
}{{1, 2}, {1.5, 3}, {2, math.MaxInt}}

// workspace is the scratch state of one Partition call. Its arrays are
// sized for the finest level and reused by every coarser level and every
// refinement pass, so a level costs O(n + m) without per-vertex
// allocation.
type workspace struct {
	match  []int    // coarsen: matched partner, -1 while unmatched
	order  []int    // coarsen: random visit order
	slot   []int    // contraction: neighbour -> index in the list being built, -1 if absent
	locked []bool   // fmPass: vertices that may not move again in this pass
	stamp  []uint64 // lazy heap deletion: only a vertex's latest push is live
	heap   moveHeap // fmPass: highest gain first
	cheap  moveHeap // rebalance: lowest cost first, ties to the lowest vertex
	moves  []fmMove // fmPass: applied moves, for rollback
	conn   []uint64 // one vertex's connectivity to every part

	// Per-vertex connectivity to the parts its neighbours are in, kept
	// up to date across moves so that evaluating a vertex costs O(k),
	// not O(degree): a Zipf hub is re-evaluated every time one of its
	// many neighbours moves. Vertex v owns min(degree, k) slots starting
	// at pcStart[v], of which pcLen[v] are live.
	pcStart []int
	pcLen   []int
	pc      []partConn
}

// partConn is one entry of a vertex's connectivity: its edges into part p.
type partConn struct {
	p      int
	edges  int    // number of neighbours in p
	weight uint64 // total weight of the edges into p
}

// newWorkspace sizes a workspace for the input graph g: no level has
// more vertices or adjacency entries.
func newWorkspace(g *Graph, k int) *workspace {
	n := g.NumVertices()
	ws := &workspace{
		match:   make([]int, n),
		order:   make([]int, n),
		slot:    make([]int, n),
		locked:  make([]bool, n),
		stamp:   make([]uint64, n),
		cheap:   moveHeap{tieLowest: true},
		conn:    make([]uint64, k),
		pcStart: make([]int, n),
		pcLen:   make([]int, n),
		pc:      make([]partConn, min(numEntries(g), n*k)),
	}
	for i := range ws.slot {
		ws.slot[i] = -1
	}
	return ws
}

// addEdge adds weight w toward neighbour to to list, merging it into the
// list's existing entry for to if there is one.
func (ws *workspace) addEdge(list []Adj, to int, w uint64) []Adj {
	if i := ws.slot[to]; i >= 0 {
		list[i].Weight += w
		return list
	}
	ws.slot[to] = len(list)
	return append(list, Adj{To: to, Weight: w})
}

// closeList clears the slot markers of a finished list and returns it
// with its capacity clipped, so the shared backing array stays intact.
func (ws *workspace) closeList(list []Adj) []Adj {
	for _, a := range list {
		ws.slot[a.To] = -1
	}
	return list[:len(list):len(list)]
}

// initConn builds every vertex's part connectivity under parts.
func (ws *workspace) initConn(g *Graph, parts []int, k int) {
	next := 0
	for v, list := range g.Adj {
		ws.pcStart[v], ws.pcLen[v] = next, 0
		next += min(len(list), k)
		for _, a := range list {
			ws.connAdd(v, parts[a.To], a.Weight)
		}
	}
}

// connOf returns v's live connectivity entries.
func (ws *workspace) connOf(v int) []partConn {
	start := ws.pcStart[v]
	return ws.pc[start : start+ws.pcLen[v]]
}

// loadConn writes v's connectivity to every part into the dense ws.conn.
func (ws *workspace) loadConn(v int) []uint64 {
	clear(ws.conn)
	for _, e := range ws.connOf(v) {
		ws.conn[e.p] = e.weight
	}
	return ws.conn
}

// connAdd records an edge of weight w from v into part p.
func (ws *workspace) connAdd(v, p int, w uint64) {
	live := ws.connOf(v)
	for i := range live {
		if live[i].p == p {
			live[i].edges++
			live[i].weight += w
			return
		}
	}
	ws.pc[ws.pcStart[v]+len(live)] = partConn{p: p, edges: 1, weight: w}
	ws.pcLen[v]++
}

// connSub removes an edge of weight w from v into part p, dropping the
// entry with the last such edge.
func (ws *workspace) connSub(v, p int, w uint64) {
	live := ws.connOf(v)
	for i := range live {
		if live[i].p == p {
			live[i].edges--
			live[i].weight -= w
			if live[i].edges == 0 {
				live[i] = live[len(live)-1]
				ws.pcLen[v]--
			}
			return
		}
	}
}

// move reassigns v to part to, updating the loads and the connectivity
// of v's neighbours.
func (ws *workspace) move(g *Graph, parts []int, loads []uint64, v, to int) {
	from := parts[v]
	parts[v] = to
	loads[from] -= g.Weights[v]
	loads[to] += g.Weights[v]
	for _, a := range g.Adj[v] {
		ws.connSub(a.To, from, a.Weight)
		ws.connAdd(a.To, to, a.Weight)
	}
}

func validate(g *Graph) error {
	if g == nil {
		return fmt.Errorf("%w: nil graph", ErrBadGraph)
	}
	if len(g.Adj) != len(g.Weights) {
		return fmt.Errorf("%w: %d weights but %d adjacency lists", ErrBadGraph, len(g.Weights), len(g.Adj))
	}
	n := len(g.Weights)
	for u, list := range g.Adj {
		for _, a := range list {
			if a.To < 0 || a.To >= n {
				return fmt.Errorf("%w: vertex %d has neighbour %d out of range", ErrBadGraph, u, a.To)
			}
			if a.To == u {
				return fmt.Errorf("%w: vertex %d has a self-loop", ErrBadGraph, u)
			}
		}
	}
	return nil
}

// numEntries returns the total length of g's adjacency lists.
func numEntries(g *Graph) int {
	m := 0
	for _, list := range g.Adj {
		m += len(list)
	}
	return m
}

// normalize merges parallel adjacency entries so downstream code can
// assume at most one entry per neighbour, and sorts each list by
// neighbour. All lists share one backing array.
func (ws *workspace) normalize(g *Graph) *Graph {
	out := &Graph{
		Weights: append([]uint64(nil), g.Weights...),
		Adj:     make([][]Adj, len(g.Adj)),
	}
	backing := make([]Adj, 0, numEntries(g))
	for u, list := range g.Adj {
		merged := backing[len(backing):]
		for _, a := range list {
			merged = ws.addEdge(merged, a.To, a.Weight)
		}
		merged = ws.closeList(merged)
		slices.SortFunc(merged, func(a, b Adj) int { return a.To - b.To })
		out.Adj[u] = merged
		backing = backing[:len(backing)+len(merged)]
	}
	return out
}

// coarsenLevels runs phase 1 and returns the levels, finest first.
// Pinned graphs are not coarsened: collapsing a pinned vertex with a free
// (or differently pinned) one would make the constraint unrepresentable,
// and pinned inputs are small repair graphs anyway.
func coarsenLevels(g *Graph, opts Options, rng *rand.Rand, ws *workspace) []*level {
	levels := []*level{{g: g}}
	if opts.Pinned != nil {
		return levels
	}
	maxVW := uint64(coarsenWeightCap * float64(g.TotalWeight()) / float64(opts.CoarsenTo))
	for cur := levels[0]; cur.g.NumVertices() > opts.CoarsenTo; {
		cg, fineToCoarse := coarsen(cur.g, maxVW, rng, ws)
		if cg == nil {
			break // nothing left to match
		}
		cur.coarseMap = fineToCoarse
		next := &level{g: cg}
		levels = append(levels, next)
		if float64(cg.NumVertices()) > coarsenFraction*float64(cur.g.NumVertices()) {
			break
		}
		cur = next
	}
	return levels
}

// coarsen performs one level of heavy-edge matching: every unmatched
// vertex, visited in random order, is matched with its heaviest unmatched
// neighbour whose combined weight stays within maxVW. It returns the
// contracted graph and the fine-to-coarse vertex map, or a nil graph when
// nothing could be matched.
func coarsen(g *Graph, maxVW uint64, rng *rand.Rand, ws *workspace) (*Graph, []int) {
	n := g.NumVertices()
	match := ws.match[:n]
	for i := range match {
		match[i] = -1
	}
	// The same permutation, from the same random draws, as rng.Perm(n).
	order := ws.order[:n]
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	unmatched := n
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		best, bestW := -1, uint64(0)
		for _, a := range g.Adj[u] {
			if match[a.To] != -1 || a.Weight < bestW || g.Weights[u]+g.Weights[a.To] > maxVW {
				continue
			}
			if a.Weight > bestW || best == -1 || a.To < best {
				best, bestW = a.To, a.Weight
			}
		}
		if best != -1 {
			match[u] = best
			match[best] = u
			unmatched -= 2
		}
	}
	// Two-hop matching (METIS 5's Match_2HopAny): the leaves of a hub
	// that reached the weight cap have no unmatched neighbour left, so
	// pair up the low-degree unmatched vertices that share a neighbour.
	for _, pass := range twoHopPasses {
		if float64(unmatched) <= pass.unmatched*unmatchedFor2Hop*float64(n) {
			break
		}
		for _, h := range order {
			pending := -1
			for _, a := range g.Adj[h] {
				v := a.To
				if match[v] != -1 || len(g.Adj[v]) >= pass.maxDegree {
					continue
				}
				if pending == -1 || g.Weights[pending]+g.Weights[v] > maxVW {
					pending = v
					continue
				}
				match[pending] = v
				match[v] = pending
				unmatched -= 2
				pending = -1
			}
		}
	}
	if unmatched == n {
		return nil, nil
	}

	// The lower-numbered vertex of a pair owns the coarse vertex, so
	// coarse vertices are numbered, and built below, in fine order.
	fineToCoarse := make([]int, n)
	coarseCount := 0
	for u := 0; u < n; u++ {
		if match[u] == -1 || match[u] > u {
			fineToCoarse[u] = coarseCount
			coarseCount++
		}
	}
	for u := 0; u < n; u++ {
		if match[u] != -1 && match[u] < u {
			fineToCoarse[u] = fineToCoarse[match[u]]
		}
	}

	cg := &Graph{
		Weights: make([]uint64, coarseCount),
		Adj:     make([][]Adj, coarseCount),
	}
	backing := make([]Adj, 0, numEntries(g))
	for u := 0; u < n; u++ {
		v := match[u]
		if v != -1 && v < u {
			continue
		}
		cu := fineToCoarse[u]
		list := backing[len(backing):]
		for _, f := range [2]int{u, v} {
			if f == -1 {
				continue
			}
			cg.Weights[cu] += g.Weights[f]
			for _, a := range g.Adj[f] {
				if cv := fineToCoarse[a.To]; cv != cu {
					list = ws.addEdge(list, cv, a.Weight)
				}
			}
		}
		cg.Adj[cu] = ws.closeList(list)
		backing = backing[:len(backing)+len(list)]
	}
	return cg, fineToCoarse
}

// initialPartition assigns coarse vertices greedily: descending weight
// order, each vertex goes to the part with the strongest existing
// connection among parts that stay under the cap, falling back to the
// lightest part. Pinned vertices are placed first, unconditionally, so
// free vertices gravitate toward their pinned neighbours.
func initialPartition(g *Graph, opts Options, rng *rand.Rand) []int {
	n := g.NumVertices()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	loads := make([]uint64, opts.K)
	caps := capsFor(g.TotalWeight(), opts)

	if opts.Pinned != nil {
		for u, p := range opts.Pinned {
			if p >= 0 {
				parts[u] = p
				loads[p] += g.Weights[u]
			}
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Shuffle first so equal-weight ties are seed-dependent but
	// deterministic, then stable sort by descending weight.
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(i, j int) bool {
		return g.Weights[order[i]] > g.Weights[order[j]]
	})

	gain := make([]uint64, opts.K)
	for _, u := range order {
		if parts[u] >= 0 {
			continue // pinned, already placed
		}
		for p := range gain {
			gain[p] = 0
		}
		for _, a := range g.Adj[u] {
			if pv := parts[a.To]; pv >= 0 {
				gain[pv] += a.Weight
			}
		}
		best := -1
		var bestGain uint64
		for p := 0; p < opts.K; p++ {
			if loads[p]+g.Weights[u] > caps[p] {
				continue
			}
			if best == -1 || gain[p] > bestGain ||
				(gain[p] == bestGain && loads[p] < loads[best]) {
				best, bestGain = p, gain[p]
			}
		}
		if best == -1 {
			// Nothing fits under the cap (a single huge vertex);
			// place on the lightest part.
			best = 0
			for p := 1; p < opts.K; p++ {
				if loads[p] < loads[best] {
					best = p
				}
			}
		}
		parts[u] = best
		loads[best] += g.Weights[u]
	}
	return parts
}

// refine improves parts with Fiduccia–Mattheyses passes: within a pass
// every vertex may move once (possibly with negative gain) and the best
// prefix of the move sequence is kept. Moves must respect the balance cap
// except when they drain an overloaded part.
func refine(g *Graph, parts []int, opts Options, ws *workspace) []int {
	loads := make([]uint64, opts.K)
	for v, p := range parts {
		loads[p] += g.Weights[v]
	}
	caps := capsFor(g.TotalWeight(), opts)
	ws.initConn(g, parts, opts.K)

	for pass := 0; pass < opts.RefinePasses; pass++ {
		if ws.fmPass(g, parts, loads, caps, opts.K, opts.Pinned) == 0 {
			break
		}
	}

	// Balance repair: if any part exceeds the cap (possible right after
	// projection), move its lowest-connectivity boundary vertices out.
	ws.rebalance(g, parts, loads, caps, opts.K, opts.Pinned)
	return parts
}

// fmMove records one applied tentative move for possible rollback.
type fmMove struct {
	v        int
	from, to int
}

// fmPass runs one FM sweep and returns the kept cut improvement (0 when
// the pass achieved nothing and refinement should stop). Pinned
// vertices start locked and never move.
func (ws *workspace) fmPass(g *Graph, parts []int, loads []uint64, caps []uint64, k int, pinned []int) int64 {
	n := g.NumVertices()
	locked := ws.locked[:n]
	clear(locked)
	if pinned != nil {
		for v, p := range pinned {
			if p >= 0 {
				locked[v] = true
			}
		}
	}
	// Tentative moves may overshoot the cap by one maximum vertex weight
	// (the classic FM tolerance); rebalance repairs any kept overshoot.
	var maxW uint64
	for _, w := range g.Weights {
		if w > maxW {
			maxW = w
		}
	}

	// bestMove computes the most attractive target part for v under the
	// balance constraint; ok is false when v has no feasible move.
	bestMove := func(v int) (to int, gain int64, ok bool) {
		if len(g.Adj[v]) == 0 {
			return 0, 0, false
		}
		from := parts[v]
		conn := ws.loadConn(v)
		to = -1
		for p := 0; p < k; p++ {
			if p == from {
				continue
			}
			if loads[p]+g.Weights[v] > caps[p]+maxW && loads[from] <= caps[from] {
				continue
			}
			gp := int64(conn[p]) - int64(conn[from])
			if to == -1 || gp > gain || (gp == gain && loads[p] < loads[to]) {
				to, gain = p, gp
			}
		}
		return to, gain, to != -1
	}

	h := &ws.heap
	h.items = h.items[:0]
	stamp := ws.stamp[:n]
	clear(stamp)
	push := func(v int) {
		if locked[v] {
			return
		}
		if to, gain, ok := bestMove(v); ok {
			stamp[v]++
			h.push(moveCand{v: v, to: to, gain: gain, stamp: stamp[v]})
		}
	}
	for v := 0; v < n; v++ {
		push(v)
	}

	var (
		moves        = ws.moves[:0]
		cum, bestCum int64
		bestLen      int
		budget       = n
	)
	for budget > 0 && h.len() > 0 && len(moves)-bestLen <= fmStallMoves {
		c := h.pop()
		if locked[c.v] || c.stamp != stamp[c.v] {
			continue
		}
		to, gain, ok := bestMove(c.v)
		if !ok {
			continue
		}
		if gain != c.gain || to != c.to {
			stamp[c.v]++
			h.push(moveCand{v: c.v, to: to, gain: gain, stamp: stamp[c.v]})
			continue
		}
		// Apply the tentative move and lock the vertex.
		from := parts[c.v]
		ws.move(g, parts, loads, c.v, to)
		locked[c.v] = true
		moves = append(moves, fmMove{v: c.v, from: from, to: to})
		cum += gain
		if cum > bestCum {
			bestCum, bestLen = cum, len(moves)
		}
		budget--
		// Neighbours' gains changed; refresh their candidates.
		for _, a := range g.Adj[c.v] {
			push(a.To)
		}
	}
	ws.moves = moves

	// Roll back every move after the best prefix.
	for i := len(moves) - 1; i >= bestLen; i-- {
		ws.move(g, parts, loads, moves[i].v, moves[i].from)
	}
	return bestCum
}

// moveCand is a prioritized tentative move.
type moveCand struct {
	v     int
	to    int
	gain  int64
	stamp uint64
}

// moveHeap is a max-heap of candidates by gain (lazy deletion via stamp).
// Equal gains pop in heap order, or lowest vertex first when tieLowest
// is set.
type moveHeap struct {
	items     []moveCand
	tieLowest bool
}

func (h *moveHeap) len() int { return len(h.items) }

// above reports whether a pops before b.
func (h *moveHeap) above(a, b moveCand) bool {
	return a.gain > b.gain || (h.tieLowest && a.gain == b.gain && a.v < b.v)
}

func (h *moveHeap) push(c moveCand) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.above(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *moveHeap) pop() moveCand {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && h.above(h.items[l], h.items[largest]) {
			largest = l
		}
		if r < last && h.above(h.items[r], h.items[largest]) {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}

// rebalance moves vertices out of each overloaded part p in turn, one at
// a time, until p fits its cap: the move that loses the least
// connectivity first, ties to the lowest vertex index, then to the first
// feasible target part. Pinned vertices stay put even when their part is
// overloaded.
//
// The candidates sit in a lazy min-heap instead of being rescanned per
// move. While p drains, a vertex's cheapest move only gets cheaper when
// a neighbour leaves p, and such neighbours are re-pushed; the target
// parts only gain load, which can only make moves dearer. So the latest
// entry of every vertex is a lower bound of its true cost, and an entry
// whose recomputed cost still matches is the minimum the full scan would
// pick.
func (ws *workspace) rebalance(g *Graph, parts []int, loads []uint64, caps []uint64, k int, pinned []int) {
	n := g.NumVertices()
	stamp := ws.stamp[:n]
	h := &ws.cheap
	for p := 0; p < k; p++ {
		if loads[p] <= caps[p] {
			continue
		}
		// cheapest returns v's least-cost feasible move out of p.
		cheapest := func(v int) (to int, cost int64, ok bool) {
			conn := ws.loadConn(v)
			internal := conn[p]
			to = -1
			for q := 0; q < k; q++ {
				if q == p || loads[q]+g.Weights[v] > caps[q] {
					continue
				}
				if c := int64(internal) - int64(conn[q]); to == -1 || c < cost {
					to, cost = q, c
				}
			}
			return to, cost, to != -1
		}
		push := func(v int) {
			if parts[v] != p || (pinned != nil && pinned[v] >= 0) {
				return
			}
			if to, cost, ok := cheapest(v); ok {
				stamp[v]++
				h.push(moveCand{v: v, to: to, gain: -cost, stamp: stamp[v]})
			}
		}
		clear(stamp)
		h.items = h.items[:0]
		for v := 0; v < n; v++ {
			push(v)
		}
		for moved := 0; loads[p] > caps[p] && moved < n && h.len() > 0; {
			c := h.pop()
			if parts[c.v] != p || c.stamp != stamp[c.v] {
				continue
			}
			to, cost, ok := cheapest(c.v)
			if !ok {
				continue // targets only fill up: never feasible again
			}
			if -cost != c.gain {
				stamp[c.v]++
				h.push(moveCand{v: c.v, to: to, gain: -cost, stamp: stamp[c.v]})
				continue
			}
			ws.move(g, parts, loads, c.v, to)
			moved++
			for _, a := range g.Adj[c.v] {
				push(a.To)
			}
		}
	}
}

// overload returns the largest amount by which a part's weight exceeds
// its cap, or 0 when every part fits.
func overload(weights, caps []uint64) int64 {
	var ex int64
	for p, w := range weights {
		ex = max(ex, int64(w)-int64(caps[p]))
	}
	return ex
}

// capsFor computes the per-part weight limits, honouring unequal target
// fractions when configured.
func capsFor(total uint64, opts Options) []uint64 {
	caps := make([]uint64, opts.K)
	for p := range caps {
		frac := 1.0 / float64(opts.K)
		if opts.TargetFractions != nil {
			frac = opts.TargetFractions[p]
		}
		c := uint64(opts.Alpha * float64(total) * frac)
		if c == 0 {
			c = 1
		}
		caps[p] = c
	}
	return caps
}

// summarize computes the result statistics for a final assignment.
func summarize(g *Graph, parts []int, k int) *Result {
	res := &Result{Parts: parts, PartWeights: make([]uint64, k)}
	for v, p := range parts {
		res.PartWeights[p] += g.Weights[v]
	}
	for u, list := range g.Adj {
		for _, a := range list {
			if a.To > u && parts[a.To] != parts[u] {
				res.CutWeight += a.Weight
			}
		}
	}
	total := g.TotalWeight()
	if total > 0 {
		var max uint64
		for _, w := range res.PartWeights {
			if w > max {
				max = w
			}
		}
		res.Imbalance = float64(max) * float64(k) / float64(total)
	}
	return res
}
