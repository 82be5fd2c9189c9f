package experiments

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fuiov/internal/verify"
)

// Entry is one registered experiment: everything `fuiov <name>` needs
// to list, configure, run and record it.
type Entry struct {
	// Name is the registry key and the command-line spelling.
	Name string
	// Doc is the one-line description the usage text prints.
	Doc string
	// InAll marks the experiments `fuiov all` runs, in registry order.
	InAll bool
	// Bind registers the experiment's own flags on fs and returns the
	// run function that reads them once fs is parsed; unparsed, the
	// flags keep the experiment's defaults.
	Bind func(fs *flag.FlagSet) RunFunc
	// WriteJSON, when non-nil, writes the rows a run returned as the
	// experiment's BENCH_<name>.json artefact.
	WriteJSON func(w io.Writer, rows any) error
}

// RunFunc runs one experiment: the stdout table plus the typed rows
// behind it (what the entry's WriteJSON takes). Every experiment is
// ctx-first by this type, so every one can be cancelled.
type RunFunc func(ctx context.Context, scale Scale, seed uint64) (table string, rows any, err error)

// registry lists the experiments in the order the usage text prints
// and `all` runs them.
var registry = []Entry{
	{Name: "table1", InAll: true, Doc: "Table I — accuracy of the four unlearning methods",
		Bind: noFlags(tabular(Table1, FormatTable1))},
	{Name: "fig1", InAll: true, Doc: "Fig. 1 — attack success rate across unlearning stages",
		Bind: noFlags(tabular(Figure1, FormatFigure1))},
	{Name: "fig2", InAll: true, Doc: "Fig. 2 — accuracy vs clip threshold L",
		Bind: noFlags(runFigure2)},
	{Name: "fig3", InAll: true, Doc: "Fig. 3 — accuracy vs direction threshold δ",
		Bind: noFlags(runFigure3)},
	{Name: "storage", InAll: true, Doc: "§I claim — direction vs full-gradient storage footprint",
		Bind: noFlags(tabular(Storage, FormatStorage))},
	{Name: "cost", InAll: true, Doc: "recovery cost per method (client compute/comm + storage)",
		Bind: noFlags(tabular(CostTable, FormatCost))},
	{Name: "ablate", InAll: true, Doc: "DESIGN.md A1–A4 ablations",
		Bind: noFlags(runAblations)},
	{Name: "strategies", InAll: true, Doc: "every registered unlearn.Strategy on one seeded scenario",
		Bind: bindStrategies, WriteJSON: jsonOf(WriteStrategiesJSON)},
	{Name: "scale", Doc: "streamed sharded aggregation: up to a million synthetic uploads per round, flat memory",
		Bind: bindScale, WriteJSON: jsonOf(WriteScaleJSON)},
	{Name: "verify", Doc: "forgetting verification: membership inference, backdoor retention and relearn time per strategy",
		Bind: bindVerify, WriteJSON: jsonOf(WriteVerifyJSON)},
}

// Entries lists every registered experiment in registry order.
func Entries() []Entry { return registry }

// noFlags is the Bind of an experiment that declares no flags.
func noFlags(run RunFunc) func(*flag.FlagSet) RunFunc {
	return func(*flag.FlagSet) RunFunc { return run }
}

// tabular adapts an experiment — typed rows from run, rendered by
// format — to a RunFunc.
func tabular[R any](run func(context.Context, Scale, uint64) (R, error), format func(R) string) RunFunc {
	return func(ctx context.Context, scale Scale, seed uint64) (string, any, error) {
		rows, err := run(ctx, scale, seed)
		if err != nil {
			return "", nil, err
		}
		return format(rows), rows, nil
	}
}

// jsonOf adapts a typed artefact writer to an Entry's WriteJSON; R is
// the row type the same entry's RunFunc returns.
func jsonOf[R any](write func(io.Writer, R) error) func(io.Writer, any) error {
	return func(w io.Writer, rows any) error { return write(w, rows.(R)) }
}

func runFigure2(ctx context.Context, scale Scale, seed uint64) (string, any, error) {
	points, err := Figure2(ctx, scale, seed, nil)
	if err != nil {
		return "", nil, err
	}
	title := fmt.Sprintf("Fig. 2 — accuracy vs clip threshold L (δ=%.0e)", scale.Delta)
	return FormatSweep(title, "L", points), points, nil
}

func runFigure3(ctx context.Context, scale Scale, seed uint64) (string, any, error) {
	points, err := Figure3(ctx, scale, seed, nil)
	if err != nil {
		return "", nil, err
	}
	return FormatSweep("Fig. 3 — accuracy vs direction threshold δ (L at Table-I setting)", "delta", points), points, nil
}

func runAblations(ctx context.Context, scale Scale, seed uint64) (string, any, error) {
	clip, err := AblationClipping(ctx, scale, seed)
	if err != nil {
		return "", nil, err
	}
	refresh, err := AblationRefresh(ctx, scale, seed, nil)
	if err != nil {
		return "", nil, err
	}
	boot, err := AblationBootstrap(ctx, scale, seed)
	if err != nil {
		return "", nil, err
	}
	hetero, err := AblationHeterogeneity(ctx, scale, seed, nil)
	if err != nil {
		return "", nil, err
	}
	table := FormatAblation("A1 — clipping mode", clip) + "\n" +
		FormatAblation("A2 — pair refresh period", refresh) + "\n" +
		FormatAblation("A3 — L-BFGS bootstrap", boot) + "\n" +
		FormatAblation("A4 — client heterogeneity", hetero)
	return table, [][]AblationRow{clip, refresh, boot, hetero}, nil
}

// strategiesFlag registers -strategies, the comma-separated strategy
// subset shared by the strategies and verify experiments.
func strategiesFlag(fs *flag.FlagSet) *string {
	return fs.String("strategies", "", "comma-separated strategy names (default: every registered strategy)")
}

// suiteFlags registers the forgetting-verification suite's size flags.
func suiteFlags(fs *flag.FlagSet) *verify.Config {
	var cfg verify.Config
	fs.IntVar(&cfg.Shadows, "shadows", 0, "shadow-model count for the membership attack (0 = suite default)")
	fs.IntVar(&cfg.RelearnCap, "relearn-cap", 0, "round cap for the relearn-time probe (0 = suite default)")
	return &cfg
}

func bindStrategies(fs *flag.FlagSet) RunFunc {
	names := strategiesFlag(fs)
	verified := fs.Bool("verify", false, `score each row with the forgetting-verification suite (fills the rows' "forgetting" block)`)
	suite := suiteFlags(fs)
	return tabular(func(ctx context.Context, scale Scale, seed uint64) ([]StrategyRow, error) {
		var vcfg *verify.Config
		if *verified {
			vcfg = suite
		}
		return CompareStrategiesVerified(ctx, scale, seed, splitList(*names), vcfg)
	}, FormatStrategies)
}

func bindVerify(fs *flag.FlagSet) RunFunc {
	names := strategiesFlag(fs)
	suite := suiteFlags(fs)
	return tabular(func(ctx context.Context, scale Scale, seed uint64) ([]VerifyRow, error) {
		return VerifyStrategies(ctx, scale, seed, splitList(*names), *suite)
	}, FormatVerify)
}

// bindScale leaves unset flags zero so ScaleBench fills in the
// checked-in sweep's defaults. The sweep has no deployment, so the
// run ignores the Scale it is handed.
func bindScale(fs *flag.FlagSet) RunFunc {
	clients := fs.String("clients", "", "comma-separated fleet sizes (default 10000,100000,1000000)")
	rounds := fs.Int("rounds", 0, "rounds per fleet size (default 3)")
	dim := fs.Int("dim", 0, "model dimension (default 64)")
	shards := fs.Int("shards", 0, "shard accumulator count (default 8, pinned so the result checksum is machine-independent)")
	return tabular(func(ctx context.Context, _ Scale, seed uint64) ([]ScaleRow, error) {
		cfg := ScaleConfig{Rounds: *rounds, Dim: *dim, Shards: *shards, Seed: seed}
		for _, f := range splitList(*clients) {
			n, err := strconv.Atoi(f)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad -clients entry %q (want a positive integer)", f)
			}
			cfg.Registered = append(cfg.Registered, n)
		}
		return ScaleBench(ctx, cfg)
	}, FormatScale)
}

// splitList parses a comma-separated flag value; "" is nil.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
