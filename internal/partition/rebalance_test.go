package partition

import (
	"math/rand"
	"slices"
	"testing"
)

// rebalanceByScan is the reference balance repair: before every move it
// rescans every vertex of the overloaded part and takes the least-cost
// move, ties to the lowest vertex, then to the first feasible part.
func rebalanceByScan(g *Graph, parts []int, loads []uint64, caps []uint64, k int, pinned []int) {
	for p := 0; p < k; p++ {
		guard := 0
		for loads[p] > caps[p] && guard < g.NumVertices() {
			guard++
			bestV, bestTo := -1, -1
			bestCost := int64(1<<62 - 1)
			for v := 0; v < g.NumVertices(); v++ {
				if parts[v] != p || (pinned != nil && pinned[v] >= 0) {
					continue
				}
				var internal uint64
				ext := make([]uint64, k)
				for _, a := range g.Adj[v] {
					if parts[a.To] == p {
						internal += a.Weight
					} else {
						ext[parts[a.To]] += a.Weight
					}
				}
				for q := 0; q < k; q++ {
					if q == p || loads[q]+g.Weights[v] > caps[q] {
						continue
					}
					if cost := int64(internal) - int64(ext[q]); cost < bestCost {
						bestV, bestTo, bestCost = v, q, cost
					}
				}
			}
			if bestV == -1 {
				break
			}
			loads[p] -= g.Weights[bestV]
			loads[bestTo] += g.Weights[bestV]
			parts[bestV] = bestTo
		}
	}
}

// TestRebalanceMatchesScan checks that the heap-driven balance repair
// makes exactly the moves of the full rescan, on random graphs with many
// cost ties, overloaded parts and pinned vertices.
func TestRebalanceMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n, k := 4+rng.Intn(60), 2+rng.Intn(4)
		g := &Graph{Weights: make([]uint64, n), Adj: make([][]Adj, n)}
		for v := range g.Weights {
			g.Weights[v] = uint64(1 + rng.Intn(4))
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := uint64(rng.Intn(4))
			g.Adj[u] = append(g.Adj[u], Adj{To: v, Weight: w})
			g.Adj[v] = append(g.Adj[v], Adj{To: u, Weight: w})
		}
		var pinned []int
		if trial%3 == 0 {
			pinned = make([]int, n)
			for v := range pinned {
				pinned[v] = -1
				if rng.Intn(5) == 0 {
					pinned[v] = rng.Intn(k)
				}
			}
		}
		// Skew the start so some parts are far over their caps.
		parts := make([]int, n)
		for v := range parts {
			parts[v] = rng.Intn(k) * rng.Intn(2)
			if pinned != nil && pinned[v] >= 0 {
				parts[v] = pinned[v]
			}
		}
		opts := Options{K: k, Alpha: 1 + rng.Float64()/4}
		caps := capsFor(g.TotalWeight(), opts)

		ws := newWorkspace(g, k)
		fine := ws.normalize(g)
		got, want := slices.Clone(parts), slices.Clone(parts)
		gotLoads, wantLoads := make([]uint64, k), make([]uint64, k)
		for v, p := range parts {
			gotLoads[p] += g.Weights[v]
			wantLoads[p] += g.Weights[v]
		}
		ws.initConn(fine, got, k)
		ws.rebalance(fine, got, gotLoads, caps, k, pinned)
		rebalanceByScan(fine, want, wantLoads, caps, k, pinned)
		if !slices.Equal(got, want) || !slices.Equal(gotLoads, wantLoads) {
			t.Fatalf("trial %d (n=%d k=%d): heap repair %v loads %v, scan %v loads %v",
				trial, n, k, got, gotLoads, want, wantLoads)
		}
	}
}
