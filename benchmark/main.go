// Command nocbench is the repository's benchmark: five reference workloads
// driven as closed loops through the public nocdr.Session.Sweep, each op's
// report checked against golden digests and invariants, plus a traced pass
// that times every layer of the pipeline from outside. See README.md.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh -workload mesh_verify -seed 0 -seconds 20 -trace 0
//	bash benchmark/run.sh -seed 0 -out set.json   # 5 rounds + 1 traced round
//	bash benchmark/run.sh -compare base.json change.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// maxProcs caps the Go scheduler at the sizing host's CPU count, so the
// load is the same on larger machines.
const maxProcs = 2

// setupRuns is how many times a run sets its workload up; setup_s is the
// median. One set-up takes 0.04–0.2 s and moves by ±15% between
// repetitions on the sizing host, so it takes several to settle.
const setupRuns = 9

// runTimeout bounds a single-workload run, set-up and teardown included.
const runTimeout = 170 * time.Second

func main() {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload alone and print its result as the last line of standard output")
	seed := fs.Int64("seed", 0, "input seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time of one run (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the traced pass's spans as JSON lines to this file")
	out := fs.String("out", "", "run every workload for 5 untraced rounds and 1 traced round, one child process each, and write the result set to this file")
	compare := fs.Bool("compare", false, "compare the two result sets held by the files given as arguments")
	golden := fs.String("update-golden", "", "recompute the digest of every seed-0 op and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		var worse bool
		if worse, err = runCompare(fs.Args(), stdout); err == nil && worse {
			return 1
		}
	case *golden != "":
		err = updateGolden(ctx, *golden, stderr)
	case *workload != "":
		if *trace != 0 && *trace != 1 {
			err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
			break
		}
		err = runOne(ctx, runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			setups: setupRuns, log: stderr,
		}, *spans, stdout, stderr)
	case *out != "":
		err = orchestrate(ctx, *seed, *seconds, *out, stdout, stderr)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "nocbench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload and prints its result: a line per metric on
// standard error, the result object as the last line of standard output.
func runOne(ctx context.Context, cfg runConfig, spansPath string, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	var f *os.File
	if spansPath != "" {
		var err error
		if f, err = os.Create(spansPath); err != nil {
			return err
		}
		defer f.Close()
		cfg.spans = f
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	defs, vals := endToEnd, res.endToEnd
	if cfg.trace {
		defs, vals = perLayer, res.perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stderr, "%s %s %g %s\n", cfg.workload, d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(stderr, "%s ops %d failed %d\n", cfg.workload, res.attempted, res.failed)
	return printResult(stdout, res, cfg.trace)
}
