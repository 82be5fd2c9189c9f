// Command fuiov regenerates the paper's tables and figures.
//
// Usage:
//
//	fuiov [flags] <experiment>
//
// Experiments:
//
//	table1    Table I  — accuracy of the four unlearning methods
//	fig1      Fig. 1   — attack success rate across unlearning stages
//	fig2      Fig. 2   — accuracy vs clip threshold L
//	fig3      Fig. 3   — accuracy vs direction threshold δ
//	storage   §I claim — direction vs full-gradient storage footprint
//	cost      recovery cost per method (client compute/comm + storage)
//	ablate    DESIGN.md A1–A4 ablations
//	strategies  comparative harness — every registered unlearn.Strategy
//	          on one seeded scenario (also writes BENCH_strategies.json)
//	scale     streamed sharded aggregation at fleet scale — folds up to
//	          a million synthetic uploads per round with flat memory
//	          (also writes BENCH_scale.json); not part of "all"
//	verify    forgetting verification — every registered strategy erases
//	          the malicious clients of a backdoored deployment and is
//	          scored by shadow-model membership inference, backdoor
//	          retention and relearn time (also writes BENCH_verify.json);
//	          not part of "all"
//	all       everything above except scale and verify
//
// Flags:
//
//	-scale    "paper" (100 clients, 100 rounds, CNN) or "ci" (miniature)
//	-seed     root random seed (default 42)
//	-faultrate  per-attempt client crash probability during training
//	          (0 = fault-free); arms bounded retries + quorum handling
//	-quorum   minimum responding fraction per round when -faultrate is
//	          active (0 = commit regardless)
//	-metrics  "json" or "text": stream per-round telemetry events to
//	          stderr and print a final metrics snapshot after the run
//	-profile  path prefix: write <prefix>.cpu.pb.gz and
//	          <prefix>.heap.pb.gz pprof profiles
//	-spill-window  keep only this many model snapshots in RAM per
//	          experiment store, spilling older rounds to disk
//	-spill-dir     directory for the spill scratch file (needs
//	          -spill-window)
//	-strategies    comma-separated strategy names for the strategies
//	          experiment (default: every registered strategy)
//	-strategies-out  path for the strategies experiment's JSON output
//	          (default BENCH_strategies.json; "-" disables the file)
//	-scale-clients  comma-separated fleet sizes for the scale
//	          experiment (default 10000,100000,1000000)
//	-scale-rounds   rounds per fleet size (default 3)
//	-scale-dim      model dimension for the scale experiment (default 64)
//	-scale-shards   shard accumulator count (default 8, pinned so the
//	          result checksum is machine-independent)
//	-scale-out      path for the scale experiment's JSON output
//	          (default BENCH_scale.json; "-" disables the file)
//	-verify   also score each strategies-experiment row with the
//	          forgetting-verification suite (fills the "forgetting"
//	          block in BENCH_strategies.json; omitted without the flag)
//	-verify-out     path for the verify experiment's JSON output
//	          (default BENCH_verify.json; "-" disables the file)
//	-verify-shadows shadow-model count for the membership attack
//	          (0 = suite default)
//	-verify-relearn-cap  round cap for the relearn-time probe
//	          (0 = suite default)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fuiov/internal/experiments"
	"fuiov/internal/telemetry"
	"fuiov/internal/verify"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fuiov:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Ctrl-C stops the experiment at its next round boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fs := flag.NewFlagSet("fuiov", flag.ContinueOnError)
	scaleName := fs.String("scale", "ci", `experiment scale: "paper" or "ci"`)
	seed := fs.Uint64("seed", 42, "root random seed")
	faultRate := fs.Float64("faultrate", 0, "per-attempt client crash probability during training (0 = fault-free)")
	quorum := fs.Float64("quorum", 0, "minimum responding fraction per round under -faultrate (0 = commit regardless)")
	metricsMode := fs.String("metrics", "", `stream per-round metrics to stderr: "json" or "text"`)
	profile := fs.String("profile", "", "write CPU/heap pprof profiles with this path prefix")
	spillWindow := fs.Int("spill-window", 0, "keep only this many model snapshots in RAM, spilling older rounds to disk (0 = all in RAM)")
	spillDir := fs.String("spill-dir", "", "directory for the snapshot spill file (default: OS temp dir; needs -spill-window)")
	strategyNames := fs.String("strategies", "", "comma-separated strategy names for the strategies experiment (default: every registered strategy)")
	strategiesOut := fs.String("strategies-out", "BENCH_strategies.json", `path for the strategies experiment's JSON output ("-" disables the file)`)
	scaleClients := fs.String("scale-clients", "", "comma-separated fleet sizes for the scale experiment (default 10000,100000,1000000)")
	scaleRounds := fs.Int("scale-rounds", 0, "rounds per fleet size for the scale experiment (default 3)")
	scaleDim := fs.Int("scale-dim", 0, "model dimension for the scale experiment (default 64)")
	scaleShards := fs.Int("scale-shards", 0, "shard accumulator count for the scale experiment (default 8, machine-independent)")
	scaleOut := fs.String("scale-out", "BENCH_scale.json", `path for the scale experiment's JSON output ("-" disables the file)`)
	verifyRows := fs.Bool("verify", false, "score each strategies-experiment row with the forgetting-verification suite")
	verifyOut := fs.String("verify-out", "BENCH_verify.json", `path for the verify experiment's JSON output ("-" disables the file)`)
	verifyShadows := fs.Int("verify-shadows", 0, "shadow-model count for the membership attack (0 = suite default)")
	verifyRelearnCap := fs.Int("verify-relearn-cap", 0, "round cap for the relearn-time probe (0 = suite default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d args", fs.NArg())
	}
	var scale experiments.Scale
	switch *scaleName {
	case "paper":
		scale = experiments.PaperScale()
	case "ci":
		scale = experiments.CIScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	reg, err := newRegistry(*metricsMode)
	if err != nil {
		return err
	}
	scale.Telemetry = reg
	scale.FaultRate = *faultRate
	scale.Quorum = *quorum
	scale.SpillWindow = *spillWindow
	scale.SpillDir = *spillDir
	if *spillDir != "" && *spillWindow <= 0 {
		return fmt.Errorf("-spill-dir requires -spill-window > 0")
	}
	if *profile != "" {
		stop, err := telemetry.StartProfiles(*profile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "fuiov: profile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "profiles written to %s.cpu.pb.gz and %s.heap.pb.gz\n", *profile, *profile)
			}
		}()
	}

	experimentsToRun := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		experimentsToRun = []string{"table1", "fig1", "fig2", "fig3", "storage", "cost", "ablate", "strategies"}
	}
	opts := strategyOpts{names: splitNames(*strategyNames), out: *strategiesOut}
	sopts, err := parseScaleOpts(*scaleClients, *scaleRounds, *scaleDim, *scaleShards, *seed, *scaleOut)
	if err != nil {
		return err
	}
	opts.scale = sopts
	opts.verify = *verifyRows
	opts.vopts = verifyOpts{out: *verifyOut, shadows: *verifyShadows, relearnCap: *verifyRelearnCap}
	for _, name := range experimentsToRun {
		start := time.Now()
		out, err := runOne(ctx, name, scale, *seed, opts)
		if err != nil {
			return err
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return dumpMetrics(reg, *metricsMode)
}

// newRegistry builds the telemetry registry for -metrics, streaming
// per-round events to stderr so tables on stdout stay clean.
func newRegistry(mode string) (*telemetry.Registry, error) {
	switch mode {
	case "":
		return nil, nil
	case "json":
		r := telemetry.New()
		r.SetObserver(telemetry.NewJSONObserver(os.Stderr))
		return r, nil
	case "text":
		r := telemetry.New()
		r.SetObserver(telemetry.NewTextObserver(os.Stderr))
		return r, nil
	default:
		return nil, fmt.Errorf("unknown -metrics mode %q (want json or text)", mode)
	}
}

// dumpMetrics prints the final snapshot of every counter, gauge and
// timer in the -metrics format.
func dumpMetrics(reg *telemetry.Registry, mode string) error {
	if reg == nil {
		return nil
	}
	fmt.Fprintln(os.Stderr, "== metrics snapshot ==")
	if mode == "json" {
		return reg.Snapshot().WriteJSON(os.Stderr)
	}
	return reg.Snapshot().WriteText(os.Stderr)
}

// strategyOpts carries the strategies experiment's flags.
type strategyOpts struct {
	names  []string // nil = every registered strategy
	out    string   // JSON path; "-" disables the file
	verify bool     // score rows with the forgetting suite
	scale  scaleOpts
	vopts  verifyOpts
}

// verifyOpts carries the verify experiment's flags.
type verifyOpts struct {
	out        string // JSON path; "-" disables the file
	shadows    int    // 0 = suite default
	relearnCap int    // 0 = suite default
}

// config assembles the suite configuration from the flags.
func (o verifyOpts) config() verify.Config {
	return verify.Config{Shadows: o.shadows, RelearnCap: o.relearnCap}
}

// runVerify runs the forgetting-verification harness and writes the
// JSON artefact alongside the stdout table.
func runVerify(ctx context.Context, scale experiments.Scale, seed uint64, names []string, opts verifyOpts) (string, error) {
	rows, err := experiments.VerifyStrategies(ctx, scale, seed, names, opts.config())
	if err != nil {
		return "", err
	}
	if opts.out != "" && opts.out != "-" {
		f, err := os.Create(opts.out)
		if err != nil {
			return "", err
		}
		werr := experiments.WriteVerifyJSON(f, rows)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", werr
		}
		fmt.Fprintf(os.Stderr, "verify benchmark written to %s\n", opts.out)
	}
	return experiments.FormatVerify(rows), nil
}

// scaleOpts carries the scale experiment's flags.
type scaleOpts struct {
	cfg experiments.ScaleConfig
	out string // JSON path; "-" disables the file
}

// parseScaleOpts assembles the scale experiment's config from flags,
// leaving zero values for ScaleBench's defaults.
func parseScaleOpts(clients string, rounds, dim, shards int, seed uint64, out string) (scaleOpts, error) {
	cfg := experiments.ScaleConfig{Rounds: rounds, Dim: dim, Shards: shards, Seed: seed}
	for _, f := range splitNames(clients) {
		var n int
		if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n <= 0 {
			return scaleOpts{}, fmt.Errorf("bad -scale-clients entry %q", f)
		}
		cfg.Registered = append(cfg.Registered, n)
	}
	return scaleOpts{cfg: cfg, out: out}, nil
}

// runScale runs the scale sweep and writes the JSON benchmark
// artefact alongside the stdout table.
func runScale(opts scaleOpts) (string, error) {
	rows, err := experiments.ScaleBench(opts.cfg)
	if err != nil {
		return "", err
	}
	if opts.out != "" && opts.out != "-" {
		f, err := os.Create(opts.out)
		if err != nil {
			return "", err
		}
		werr := experiments.WriteScaleJSON(f, rows)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", werr
		}
		fmt.Fprintf(os.Stderr, "scale benchmark written to %s\n", opts.out)
	}
	return experiments.FormatScale(rows), nil
}

// splitNames parses the -strategies flag into a name list.
func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// runStrategies runs the comparative harness and writes the JSON
// benchmark artefact alongside the stdout table.
func runStrategies(ctx context.Context, scale experiments.Scale, seed uint64, opts strategyOpts) (string, error) {
	var vcfg *verify.Config
	if opts.verify {
		cfg := opts.vopts.config()
		vcfg = &cfg
	}
	rows, err := experiments.CompareStrategiesVerified(ctx, scale, seed, opts.names, vcfg)
	if err != nil {
		return "", err
	}
	if opts.out != "" && opts.out != "-" {
		f, err := os.Create(opts.out)
		if err != nil {
			return "", err
		}
		werr := experiments.WriteStrategiesJSON(f, rows)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", werr
		}
		fmt.Fprintf(os.Stderr, "strategies benchmark written to %s\n", opts.out)
	}
	return experiments.FormatStrategies(rows), nil
}

func runOne(ctx context.Context, name string, scale experiments.Scale, seed uint64, opts strategyOpts) (string, error) {
	switch name {
	case "table1":
		rows, err := experiments.Table1(ctx, scale, seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatTable1(rows), nil
	case "fig1":
		rows, err := experiments.Figure1(ctx, scale, seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure1(rows), nil
	case "fig2":
		points, err := experiments.Figure2(ctx, scale, seed, nil)
		if err != nil {
			return "", err
		}
		return experiments.FormatSweep(
			fmt.Sprintf("Fig. 2 — accuracy vs clip threshold L (δ=%.0e)", scale.Delta),
			"L", points), nil
	case "fig3":
		points, err := experiments.Figure3(ctx, scale, seed, nil)
		if err != nil {
			return "", err
		}
		return experiments.FormatSweep(
			"Fig. 3 — accuracy vs direction threshold δ (L at Table-I setting)", "delta", points), nil
	case "storage":
		rows, err := experiments.Storage(ctx, scale, seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatStorage(rows), nil
	case "cost":
		rows, err := experiments.CostTable(ctx, scale, seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatCost(rows), nil
	case "ablate":
		clip, err := experiments.AblationClipping(ctx, scale, seed)
		if err != nil {
			return "", err
		}
		refresh, err := experiments.AblationRefresh(ctx, scale, seed, nil)
		if err != nil {
			return "", err
		}
		boot, err := experiments.AblationBootstrap(ctx, scale, seed)
		if err != nil {
			return "", err
		}
		hetero, err := experiments.AblationHeterogeneity(ctx, scale, seed, nil)
		if err != nil {
			return "", err
		}
		return experiments.FormatAblation("A1 — clipping mode", clip) + "\n" +
			experiments.FormatAblation("A2 — pair refresh period", refresh) + "\n" +
			experiments.FormatAblation("A3 — L-BFGS bootstrap", boot) + "\n" +
			experiments.FormatAblation("A4 — client heterogeneity", hetero), nil
	case "strategies":
		return runStrategies(ctx, scale, seed, opts)
	case "scale":
		return runScale(opts.scale)
	case "verify":
		return runVerify(ctx, scale, seed, opts.names, opts.vopts)
	default:
		return "", fmt.Errorf("unknown experiment %q (want table1|fig1|fig2|fig3|storage|cost|ablate|strategies|scale|verify|all)", name)
	}
}
