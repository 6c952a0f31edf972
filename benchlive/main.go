// Command benchlive is the repository's end-to-end benchmark: the
// paper's two-counter topology on the live engine over real localhost
// TCP, driven by one in-process load generator. See README.md.
//
//	benchlive --workload synth-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs again with spans around every call into a layer and reports the
// per-layer metrics. The last line of standard output is a JSON result;
// the run fails (exit 1) when the system's output is wrong.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: synth-local, synth-remote or twitter-drift")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phases")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "benchlive", "spans"), "directory for the traced run's span dump")
	flag.Parse()

	spec, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchlive:", err)
		os.Exit(2)
	}
	r := &run{spec: spec, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		r.tr = newTracer()
	}
	res, rep, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchlive:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		if err := r.tr.write(*out, fmt.Sprintf("spans-%s-%d.json", spec.name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "benchlive: write spans:", err)
		}
	}
	if err := rep.print(os.Stdout, res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
