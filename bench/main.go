// Command bench is the repository's one benchmark: it stands a real
// server.Coordinator up on a loopback TCP listener, drives it from the
// same process with a seeded load generator, and reports what an RSU
// operator pays — upload → commit and unlearn → serving — end to end
// and decomposed by layer. README.md in this directory explains the
// workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// errIncorrect is returned once the results are printed when any
// operation or correctness check failed, so the exit code is non-zero.
var errIncorrect = errors.New("correctness checks failed")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// contractLine is the last line of standard output of a one-workload
// run, in the form the benchmark driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// invocation is one execution of the command: what -record appends to
// the trajectory and -compare reads back.
type invocation struct {
	Time       string       `json:"time"`
	Commit     string       `json:"commit"`
	Go         string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NProc      int          `json:"nproc"`
	Seed       uint64       `json:"seed"`
	Seconds    int          `json:"seconds"`
	Smoke      bool         `json:"smoke,omitempty"`
	Runs       []*runResult `json:"runs"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print the driver's result line (default: every workload, untraced then traced)")
	seed := fs.Uint64("seed", 1, "workload seed: data, gradients, schedule and victim derive from it")
	seconds := fs.Int("seconds", 25, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics with telemetry off, 1 = per-layer metrics from a traced run")
	outdir := fs.String("outdir", "out", "directory for trace-<workload>.json")
	smoke := fs.Bool("smoke", false, "tiny sizes, one episode: checks the harness, measures nothing")
	record := fs.String("record", "", "append this invocation's results as one JSON line to the file (the trajectory)")
	cmp := fs.Bool("compare", false, "compare two record files: bench -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two record files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	inv := &invocation{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       *seed,
		Seconds:    *seconds,
		Smoke:      *smoke,
	}
	one := func(s spec, traced bool) error {
		if *smoke {
			s = s.smoke()
		}
		// The driver allows a run 180 s; give up before it does.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		defer cancel()
		res, err := runWorkload(ctx, runConfig{spec: s, seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke, outdir: *outdir})
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		inv.Runs = append(inv.Runs, res)
		return nil
	}

	var last any = inv
	if *workload != "" {
		s, ok := lookup(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		if err := one(s, *trace == 1); err != nil {
			return err
		}
		r := inv.Runs[0]
		last = contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
	} else {
		for _, traced := range []bool{false, true} {
			for _, s := range workloads {
				if err := one(s, traced); err != nil {
					return err
				}
			}
		}
	}

	correct := true
	for _, r := range inv.Runs {
		report(r)
		correct = correct && r.Correct
	}
	if *record != "" {
		if err := appendLine(*record, inv); err != nil {
			return err
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errIncorrect
	}
	return nil
}

// report prints one run's metrics by name and unit for a human reader.
func report(r *runResult) {
	mode, defs := "end to end, untraced", endToEnd
	if r.Trace {
		mode, defs = "per layer, traced", perLayer
	}
	logf("%s (%s): seed %d, %d episodes, %d operations, %d failed", r.Workload, mode, r.Seed, r.Episodes, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		logf("  FAILED: %s", e)
	}
	for _, def := range defs {
		m := r.Metrics[def.Name]
		if sp, ok := r.Spread[def.Name]; ok && sp.Q3 > 0 {
			logf("  %-34s %14.4f %-5s (quartiles %.4f – %.4f, n=%d)", def.Name, m.Value, m.Unit, sp.Q1, sp.Q3, sp.N)
		} else {
			logf("  %-34s %14.4f %-5s", def.Name, m.Value, m.Unit)
		}
	}
}

// commit names the checked-out revision, or "unknown" outside git.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendLine appends v as one JSON line to the file at path.
func appendLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
