package main

import "fmt"

// workloadSpec fixes everything about one workload except the seed and
// the run length.
type workloadSpec struct {
	name    string
	payload int // payload field bytes
	// source builds the workload's key-pair generator; laSource, when
	// set, the one routing.la_over_hash compares locality-aware and hash
	// routing on instead.
	source   func(seed int64) source
	laSource func(seed int64) source
	// warmup tuples are injected hash-routed during set-up, before the
	// first Reconfigure; each closed-loop segment cycles its own pool.
	warmup, pool int
	// rateLow/rateHigh are the open-loop rates (tuples/s), fixed well
	// below the workload's saturation throughput.
	rateLow, rateHigh float64
	// reconfigEvery places a Reconfigure under load in the middle of
	// every reconfigEvery-tuple stretch of the high-rate phase — for the
	// drifting workload, in the middle of every week.
	reconfigEvery int
}

const (
	synthKeys   = 64
	twitterWeek = 40_000 // tuples per simulated week
)

var workloads = []workloadSpec{
	{
		name:          "synth-local",
		payload:       4 << 10,
		source:        func(seed int64) source { return synthSource(synthKeys, 0.95, seed) },
		laSource:      func(seed int64) source { return synthSource(synthKeys, 0.8, seed) },
		warmup:        20_000,
		pool:          100_000,
		rateLow:       40_000,
		rateHigh:      160_000,
		reconfigEvery: 40_000,
	},
	{
		name:          "synth-remote",
		payload:       4 << 10,
		source:        func(seed int64) source { return synthSource(synthKeys, 0, seed) },
		warmup:        20_000,
		pool:          100_000,
		rateLow:       8_000,
		rateHigh:      25_000,
		reconfigEvery: 8_000,
	},
	{
		name:          "twitter-drift",
		payload:       256,
		source:        func(seed int64) source { return twitterSource(seed, twitterWeek) },
		warmup:        twitterWeek,
		pool:          2 * twitterWeek,
		rateLow:       15_000,
		rateHigh:      40_000,
		reconfigEvery: twitterWeek,
	},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
