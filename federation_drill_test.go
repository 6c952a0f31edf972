package locastream

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/locastream/locastream/internal/transport"
	"github.com/locastream/locastream/internal/workload"
)

// withWireCompression selects the TCP transport's data-frame encoding.
func withWireCompression(c transport.Compression) Option {
	return optionFunc(func(o *options) { o.wireCompression = c })
}

// federationTopo is the cross-region pipeline: users feed topics, both
// stateful and fields-grouped, spread over every server.
func federationTopo(t testing.TB, parallelism int) *Topology {
	t.Helper()
	topo, err := NewTopology("federation").
		AddOperator(Operator{Name: "users", Parallelism: parallelism, Stateful: true,
			New: func() Processor { return NewCounter(0) }}).
		AddOperator(Operator{Name: "topics", Parallelism: parallelism, Stateful: true,
			New: func() Processor { return NewCounter(1) }}).
		Connect("users", "topics", Fields, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestFederationDrill is the acceptance drill for hierarchical
// federation: two clusters of three servers ride a drifting cross-region
// workload over real TCP transport, with per-cluster control loops
// owning the local moves and the federation layer gating cross-cluster
// migrations at the 100× cost multiple. Deterministic — manual ticks,
// seeded workload and optimizer, Drain between windows, no sleeps. The
// drill must lose nothing, keep per-key counts exact, cut inter-cluster
// wire bytes per tuple at least 3× below an identically-provisioned
// cluster-blind baseline, land window locality within 5 points of a
// from-scratch two-level partition, and journal at least one federated
// decision whose fields re-read from the JSONL file prove the cost gate.
func TestFederationDrill(t *testing.T) {
	const (
		parallelism  = 6
		windowTuples = 6000
		costPerKey   = 0.1
	)
	rackOf := []int{0, 0, 1, 2, 2, 3}
	clusterOf := []int{0, 0, 0, 1, 1, 1}
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")

	// Both applications see byte-identical windows: the generator runs
	// once, up front. Windows 0-2 are ticked epochs (a migration wave
	// between each); window 3 is the measured steady window of epoch 2.
	gen := workload.NewCrossRegion(workload.CrossRegionConfig{
		Regions: 2, UsersPerRegion: 40, TopicsPerRegion: 40,
		UserSkew: 1.2, TopicSkew: 1.2, HomeBias: 0.95, Padding: 96,
		MigrantsPerEpoch: 8, Seed: 11,
	})
	windows := make([][]Tuple, 4)
	for w := range windows {
		if w > 0 && w < 3 {
			gen.NextEpoch()
		}
		windows[w] = make([]Tuple, windowTuples)
		for i := range windows[w] {
			windows[w][i] = gen.Next()
		}
	}

	build := func(blind bool, journal string) (*App, *Autopilot) {
		opts := []Option{
			WithServers(parallelism),
			WithRacks(rackOf),
			WithClusters(clusterOf),
			WithTCPTransport(),
			// Raw frames: under LZ a tuple's encoded size depends on
			// which batch the 1 ms age flush puts it in, so the byte
			// ratio would vary with timing from run to run.
			withWireCompression(transport.CompressionOff),
			WithOptimizer(0, 0, 7),
			WithMaxInFlight(4096),
		}
		if blind {
			opts = append(opts, WithClusterBlindOptimizer())
		}
		app, err := NewApp(federationTopo(t, parallelism), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := app.NewAutopilot(AutopilotOptions{
			CostPerKey:  costPerKey,
			JournalPath: journal,
		})
		if err != nil {
			app.Stop()
			t.Fatal(err)
		}
		return app, ap
	}

	fed, fedAp := build(false, journalPath)
	defer fed.Stop()
	defer fedAp.Stop()
	flat, flatAp := build(true, "")
	defer flat.Stop()
	defer flatAp.Stop()

	if st := fedAp.Status(); st.Federation == nil || st.Federation.Clusters != 2 {
		t.Fatalf("federation layer not attached: %+v", st.Federation)
	}
	if st := flatAp.Status(); st.Federation != nil {
		t.Fatal("cluster-blind baseline must not run the federation layer")
	}

	want := make(map[string]uint64)
	inject := func(app *App, w int, record bool) {
		for _, tp := range windows[w] {
			if record {
				want[tp.Values[0]]++
			}
			if err := app.Inject(tp); err != nil {
				t.Fatal(err)
			}
		}
		app.Drain()
	}

	// Ticked epochs: window 0 optimizes away the hash fallback (the
	// bulk cross-cluster consolidation the federation gate must
	// approve), windows 1-2 chase the migration waves.
	for w := 0; w < 3; w++ {
		inject(fed, w, true)
		fedAp.Tick()
		inject(flat, w, false)
		flatAp.Tick()
	}

	// Measured steady window: compare per-tier wire deltas.
	fedBefore, flatBefore := fedAp.Status().Wire, flatAp.Status().Wire
	tb := fed.FieldsTraffic()
	inject(fed, 3, true)
	inject(flat, 3, false)
	ta := fed.FieldsTraffic()
	fedAfter, flatAfter := fedAp.Status().Wire, flatAp.Status().Wire

	fedCross := float64(fedAfter.TierBytesSent[3]-fedBefore.TierBytesSent[3]) / windowTuples
	flatCross := float64(flatAfter.TierBytesSent[3]-flatBefore.TierBytesSent[3]) / windowTuples
	fedTuples := fedAfter.TierTuplesSent[3] - fedBefore.TierTuplesSent[3]
	flatTuples := flatAfter.TierTuplesSent[3] - flatBefore.TierTuplesSent[3]
	t.Logf("inter-cluster wire bytes/tuple: federated=%.3f flat=%.3f (%.2fx); tuples %d vs %d",
		fedCross, flatCross, flatCross/fedCross, fedTuples, flatTuples)
	if flatCross <= 0 {
		t.Fatal("cluster-blind baseline sent no inter-cluster bytes; drill is not exercising the link")
	}
	if flatCross < 3*fedCross {
		t.Fatalf("inter-cluster wire bytes/tuple: federated %.1f vs flat %.1f, want >= 3x reduction",
			fedCross, flatCross)
	}
	// Which tuples cross the cluster link is fixed by the seeded workload
	// and optimizer alone, so the tuple counts behind the byte ratio are
	// exact.
	const wantFedTuples, wantFlatTuples = 444, 2546
	if fedTuples != wantFedTuples || flatTuples != wantFlatTuples {
		t.Fatalf("inter-cluster tuples: federated %d vs flat %d, want exactly %d vs %d",
			fedTuples, flatTuples, wantFedTuples, wantFlatTuples)
	}
	// The per-tier counters must account for every data tuple written.
	var tierSum uint64
	for _, n := range fedAfter.TierTuplesSent {
		tierSum += n
	}
	if tierSum != fedAfter.TuplesSent {
		t.Fatalf("per-tier tuple counters sum %d, transport sent %d", tierSum, fedAfter.TuplesSent)
	}

	// Zero loss and exact per-key counts through every migration.
	if lost := fed.TuplesLost(); lost != 0 {
		t.Fatalf("federated app lost %d tuples", lost)
	}
	for k, n := range want {
		total, _ := countKey(t, fed, "users", parallelism, k)
		if total != n {
			t.Fatalf("users[%s] counted %d, injected %d", k, total, n)
		}
	}

	// The journal is durable: close the sink and re-read the JSONL file.
	// At least one federated decision must be recoverable, and its own
	// fields must prove the 100× gate it cleared.
	if err := fedAp.Stop(); err != nil {
		t.Fatal(err)
	}
	var federated []Decision
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("corrupt journal line: %v", err)
		}
		if d.Action == Federated {
			federated = append(federated, d)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(federated) == 0 {
		t.Fatal("journal holds no federated decision")
	}
	mult := fedAp.Status().Federation.CostMultiplier
	if mult != 100 {
		t.Fatalf("cost multiplier = %v, want the default 100", mult)
	}
	for i, d := range federated {
		if d.KeysToMigrate <= 0 || d.Version == 0 || d.Reason == "" {
			t.Fatalf("federated decision %d incomplete: %+v", i, d)
		}
		if threshold := costPerKey * mult * float64(d.KeysToMigrate); d.SavedTuplesPerPeriod < threshold {
			t.Fatalf("federated decision %d violates the gate: saves %.1f/period for %d keys, threshold %.1f",
				i, d.SavedTuplesPerPeriod, d.KeysToMigrate, threshold)
		}
		if d.Signals.WindowTraffic == 0 {
			t.Fatalf("federated decision %d lacks signals: %+v", i, d)
		}
	}

	// A from-scratch two-level partition fed only epoch-2 traffic is the
	// quality bar: the drilled application's window locality must be
	// within 5 points despite having chased two migration waves.
	fresh, err := NewApp(federationTopo(t, parallelism),
		WithServers(parallelism), WithRacks(rackOf), WithClusters(clusterOf),
		WithOptimizer(0, 0, 7), WithMaxInFlight(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Stop()
	inject(fresh, 2, false)
	if _, err := fresh.Reconfigure(); err != nil {
		t.Fatal(err)
	}
	fb := fresh.FieldsTraffic()
	inject(fresh, 3, false)
	fa := fresh.FieldsTraffic()

	drillLocality := float64(ta.LocalTuples-tb.LocalTuples) / float64(ta.Total()-tb.Total())
	freshLocality := float64(fa.LocalTuples-fb.LocalTuples) / float64(fa.Total()-fb.Total())
	t.Logf("window locality: drilled=%.3f fresh=%.3f; federated decisions=%d",
		drillLocality, freshLocality, len(federated))
	if drillLocality < freshLocality-0.05 {
		t.Fatalf("drilled locality %.3f fell more than 5 points below from-scratch %.3f",
			drillLocality, freshLocality)
	}
}
