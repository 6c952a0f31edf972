package partition

import (
	"math"
	"math/rand"
	"testing"

	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/workload"
)

// twitterWeek is the number of tuples in one simulated week, matching the
// live benchmark's twitter-drift workload.
const twitterWeek = 40_000

// twitterWeekGraph builds the key graph of one seeded week of the §4.3
// Twitter generator: (location, hashtag) pairs counted exactly into a
// keygraph and converted through its CSR form, as the optimizer does.
func twitterWeekGraph(seed int64) *Graph {
	cfg := workload.DefaultTwitterConfig()
	cfg.Seed = seed
	tw := workload.NewTwitter(cfg)
	kg := keygraph.New()
	for i := 0; i < twitterWeek; i++ {
		t := tw.Next()
		kg.AddPair(keygraph.VertexID{Op: "A", Key: t.Values[0]},
			keygraph.VertexID{Op: "B", Key: t.Values[1]}, 1)
	}
	_, weights, adjRaw := kg.CSR()
	g := &Graph{Weights: weights, Adj: make([][]Adj, len(adjRaw))}
	for u, list := range adjRaw {
		g.Adj[u] = make([]Adj, len(list))
		for i, a := range list {
			g.Adj[u][i] = Adj{To: a.To, Weight: a.Weight}
		}
	}
	return g
}

// zipfDegreeGraph builds a sparse graph of n vertices and about 3n edges
// whose degrees follow a Zipf law: one endpoint of every edge is drawn
// from a Zipf distribution over the vertices, the other uniformly. Vertex
// weights are the weighted degrees, as in a key graph.
func zipfDegreeGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	g := &Graph{Weights: make([]uint64, n), Adj: make([][]Adj, n)}
	for e := 0; e < 3*n; e++ {
		u, v := int(zipf.Uint64()), rng.Intn(n)
		if u == v {
			continue
		}
		w := uint64(1 + rng.Intn(8))
		g.Adj[u] = append(g.Adj[u], Adj{To: v, Weight: w})
		g.Adj[v] = append(g.Adj[v], Adj{To: u, Weight: w})
		g.Weights[u] += w
		g.Weights[v] += w
	}
	return g
}

// starZipfGraph is zipfDegreeGraph plus one hub adjacent to every other
// vertex: the shape that made heavy-edge matching absorb one leaf per
// level.
func starZipfGraph(n int, seed int64) *Graph {
	g := zipfDegreeGraph(n, seed)
	for v := 1; v < n; v++ {
		g.Adj[0] = append(g.Adj[0], Adj{To: v, Weight: 1})
		g.Adj[v] = append(g.Adj[v], Adj{To: 0, Weight: 1})
		g.Weights[0]++
		g.Weights[v]++
	}
	return g
}

// TestCoarsenDepthSkewed is the regression test for coarsening Zipf-skewed
// key graphs: a hub used to absorb one leaf per level, so coarsening took
// 165 levels on the Twitter week below and 802 on the star. It must now
// get to CoarsenTo in O(log(n/CoarsenTo)) levels, and no match may build
// a vertex above the weight cap.
func TestCoarsenDepthSkewed(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"star+zipf", starZipfGraph(10_000, 1)},
		{"twitter-week", twitterWeekGraph(1)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{K: 4, CoarsenTo: 64}
			ws := newWorkspace(tc.g, opts.K)
			fine := ws.normalize(tc.g)
			levels := coarsenLevels(fine, opts, rand.New(rand.NewSource(1)), ws)

			n := fine.NumVertices()
			bound := 2*int(math.Ceil(math.Log2(float64(n)/float64(opts.CoarsenTo)))) + 2
			sizes := make([]int, len(levels))
			for i, l := range levels {
				sizes[i] = l.g.NumVertices()
			}
			if got := len(levels) - 1; got > bound {
				t.Fatalf("%d coarsening levels for %d vertices, want <= %d: %v", got, n, bound, sizes)
			}
			// The shrink stop alone would also bound the depth; the
			// coarsest level must still come down to about CoarsenTo.
			if coarsest := sizes[len(sizes)-1]; coarsest > 2*opts.CoarsenTo {
				t.Fatalf("coarsening stopped at %d vertices, want <= %d: %v", coarsest, 2*opts.CoarsenTo, sizes)
			}
			t.Logf("levels: %v", sizes)

			maxVW := uint64(coarsenWeightCap * float64(fine.TotalWeight()) / float64(opts.CoarsenTo))
			for i := 1; i < len(levels); i++ {
				members := make([]int, levels[i].g.NumVertices())
				for _, cv := range levels[i-1].coarseMap {
					members[cv]++
				}
				for cv, w := range levels[i].g.Weights {
					if members[cv] > 1 && w > maxVW {
						t.Fatalf("level %d: coarse vertex %d of %d vertices weighs %d, cap %d",
							i, cv, members[cv], w, maxVW)
					}
				}
			}
		})
	}
}

// TestSkewedQualityGuard checks that the faster coarsening does not cost
// partition quality on the key graphs it was built for: four seeded
// Twitter weeks, K=4, the paper's alpha.
func TestSkewedQualityGuard(t *testing.T) {
	// The mean cut fraction of the previous partitioner, which coarsened
	// these graphs one vertex per level, on the same four weeks. Its
	// per-week Imbalance was 1.0292, 1.0300, 1.0270 and 1.0298: each
	// within alpha.
	const parentMeanCut = 0.3342
	var sum float64
	for seed := int64(1); seed <= 4; seed++ {
		g := twitterWeekGraph(seed)
		res, err := Partition(g, Options{K: 4, Alpha: DefaultAlpha})
		if err != nil {
			t.Fatal(err)
		}
		checkValid(t, g, res, 4)
		cut := float64(res.CutWeight) / float64(edgeWeight(g))
		sum += cut
		t.Logf("week seed %d: %d vertices, cut fraction %.4f, imbalance %.4f",
			seed, g.NumVertices(), cut, res.Imbalance)
		if res.Imbalance > DefaultAlpha+1e-9 {
			t.Errorf("week seed %d: imbalance %.4f above alpha %.2f", seed, res.Imbalance, DefaultAlpha)
		}
	}
	if mean := sum / 4; mean > parentMeanCut {
		t.Errorf("mean cut fraction %.4f, previous partitioner %.4f", mean, parentMeanCut)
	}
}

// edgeWeight returns the total weight of g's edges.
func edgeWeight(g *Graph) uint64 {
	var w uint64
	for _, list := range g.Adj {
		for _, a := range list {
			w += a.Weight
		}
	}
	return w / 2
}

// BenchmarkPartitionSkewed partitions Zipf-skewed key graphs: one seeded
// Twitter week built through the optimizer's keygraph path, and sparse
// Zipf-degree graphs of 10^4 and 10^5 keys.
func BenchmarkPartitionSkewed(b *testing.B) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"twitter-week", twitterWeekGraph(1)},
		{"zipf-1e4", zipfDegreeGraph(10_000, 1)},
		{"zipf-1e5", zipfDegreeGraph(100_000, 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Partition(tc.g, Options{K: 4, Alpha: DefaultAlpha}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
