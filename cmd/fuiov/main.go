// Command fuiov is the repository's one front door:
//
//	fuiov <command> [flags] [args]
//
// A command is one of the registered experiments (the paper's tables,
// figures and ablations plus the repo's own sweeps —
// internal/experiments holds the registry), "all", the "iov" and "rsu"
// demos, or one of the "hist" snapshot tools. Run fuiov with no
// arguments for the generated command list and `fuiov <command> -h` for
// a command's flags; README.md's command table documents each one.
//
// Every command runs through the same setup (run, below) and so shares
// -metrics, -profile, -spill-window and -spill-dir, and a context that
// Ctrl-C cancels: any command stops at its next round boundary. Tables
// and results go to stdout, telemetry and notices to stderr.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fuiov/internal/experiments"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn/strategy"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuiov:", err)
		os.Exit(1)
	}
}

// command is one `fuiov <name>` entry. bind registers the command's
// own flags on fs and returns what runs once they are parsed.
type command struct {
	name string // "hist stats" style for a grouped command
	args string // the positional arguments it takes after the flags
	doc  string
	bind func(fs *flag.FlagSet) runFunc
}

// runFunc is a command body: it runs under the signal context with the
// shared setup's env and the positional arguments its command declares.
type runFunc func(ctx context.Context, e *env, args []string) error

// env is what the shared setup hands every command.
type env struct {
	stdout, stderr io.Writer
	// reg is the -metrics registry; nil (instrumentation off) without
	// the flag.
	reg *telemetry.Registry
	// storeOpts is -spill-window/-spill-dir as history store options.
	storeOpts []history.StoreOption
}

func (e *env) printf(format string, a ...any) { fmt.Fprintf(e.stdout, format, a...) }

// commands builds the command table: one command per registered
// experiment, "all" over the registry's InAll entries, then the demos
// and the snapshot tools.
func commands() []command {
	var cmds []command
	var inAll []experiments.Entry
	var inAllNames []string
	for _, en := range experiments.Entries() {
		cmds = append(cmds, command{name: en.Name, doc: en.Doc, bind: experimentCommand(en)})
		if en.InAll {
			inAll = append(inAll, en)
			inAllNames = append(inAllNames, en.Name)
		}
	}
	return append(cmds,
		command{name: "all", doc: "run " + strings.Join(inAllNames, ", ") + " in that order", bind: experimentCommand(inAll...)},
		command{name: "iov", doc: "end-to-end IoV scenario: mobility-driven training, then erase a dropout vehicle", bind: bindIoV},
		command{name: "rsu", doc: "the RSU as an HTTP service (PROTOCOL.md): loopback demo, or serve only with -agents=false", bind: bindRSU},
		command{name: "hist stats", args: "<snapshot>", doc: "summarise a persisted history snapshot (rounds, clients, bytes, residency)", bind: bindHistStats},
		command{name: "hist clients", args: "<snapshot>", doc: "list a snapshot's membership intervals", bind: bindHistClients},
		command{name: "hist unlearn", args: "<snapshot>", doc: "erase a client from the snapshot alone (-client N -lr η)", bind: bindHistUnlearn},
	)
}

// names lists the commands as the user types them.
func names(cmds []command) []string {
	out := make([]string, len(cmds))
	for i, c := range cmds {
		out[i] = c.name
	}
	return out
}

// lookup resolves the leading one or two words of args to a command
// and returns it with the remaining arguments.
func lookup(cmds []command, args []string) (command, []string, error) {
	for n := 1; n <= 2 && n <= len(args); n++ {
		name := strings.Join(args[:n], " ")
		for _, c := range cmds {
			if c.name == name {
				return c, args[n:], nil
			}
		}
	}
	return command{}, nil, fmt.Errorf("unknown command %q (commands: %s)", args[0], strings.Join(names(cmds), ", "))
}

// usage prints the command list, generated from the command table.
func usage(w io.Writer, cmds []command) {
	fmt.Fprintln(w, "usage: fuiov <command> [flags] [args]")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range cmds {
		fmt.Fprintf(w, "  %-24s %s\n", strings.TrimSpace(c.name+" "+c.args), c.doc)
	}
	fmt.Fprintln(w, "\nrun `fuiov <command> -h` for the command's flags")
}

// run is the whole program: resolve the command, declare the shared
// flags next to the command's own, perform the shared setup once —
// telemetry registry and round-event logger, spill options, profiles —
// run the command, and print the final metrics snapshot.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cmds := commands()
	if len(args) == 0 {
		usage(stderr, cmds)
		return errors.New("expected a command")
	}
	cmd, args, err := lookup(cmds, args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("fuiov "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	metricsMode := fs.String("metrics", "", `stream per-round metrics to stderr and print a final snapshot: "json" or "text"`)
	profile := fs.String("profile", "", "write CPU/heap pprof profiles with this path prefix")
	spillWindow := fs.Int("spill-window", 0, "keep only this many model snapshots in RAM, spilling older rounds to disk (0 = all in RAM)")
	spillDir := fs.String("spill-dir", "", "directory for the snapshot spill file (default: OS temp dir; needs -spill-window)")
	body := cmd.bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	e := &env{stdout: stdout, stderr: stderr}
	var events slog.Handler
	var snapshot func(telemetry.Snapshot, io.Writer) error
	switch *metricsMode {
	case "":
	case "json":
		events, snapshot = slog.NewJSONHandler(stderr, nil), telemetry.Snapshot.WriteJSON
	case "text":
		events, snapshot = slog.NewTextHandler(stderr, nil), telemetry.Snapshot.WriteText
	default:
		return fmt.Errorf("unknown -metrics mode %q (want json or text)", *metricsMode)
	}
	if events != nil {
		e.reg = telemetry.New()
		e.reg.SetLogger(slog.New(events))
	}
	if *spillDir != "" && *spillWindow <= 0 {
		return errors.New("-spill-dir requires -spill-window > 0")
	}
	if *spillWindow > 0 {
		e.storeOpts = []history.StoreOption{history.WithSpill(*spillDir, *spillWindow)}
	}
	if fs.NArg() != len(strings.Fields(cmd.args)) {
		return fmt.Errorf("fuiov %s takes %q after the flags, got %q", cmd.name, cmd.args, fs.Args())
	}
	if *profile != "" {
		stop, err := telemetry.StartProfiles(*profile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "fuiov: profile:", err)
			} else {
				fmt.Fprintf(stderr, "profiles written to %s.cpu.pb.gz and %s.heap.pb.gz\n", *profile, *profile)
			}
		}()
	}

	err = body(ctx, e, fs.Args())
	if e.reg != nil {
		fmt.Fprintln(stderr, "== metrics snapshot ==")
		if werr := snapshot(e.reg.Snapshot(), stderr); err == nil {
			err = werr
		}
	}
	return err
}

// seedFlag registers -seed with the command's default.
func seedFlag(fs *flag.FlagSet, def uint64) *uint64 {
	return fs.Uint64("seed", def, "root random seed")
}

// strategyFlag registers -strategy, the unlearning algorithm by
// registered name.
func strategyFlag(fs *flag.FlagSet) *string {
	return fs.String("strategy", "paper", fmt.Sprintf("unlearning strategy (one of %v)", strategy.Names()))
}

// faultPolicyFlags registers -quorum, -client-timeout and -retries with
// the command's defaults and returns the policy they fill.
func faultPolicyFlags(fs *flag.FlagSet, quorum float64, clientTimeout time.Duration, retries int) *fl.FaultPolicy {
	p := &fl.FaultPolicy{}
	fs.Float64Var(&p.Quorum, "quorum", quorum, "minimum responding fraction per round")
	fs.DurationVar(&p.ClientTimeout, "client-timeout", clientTimeout, "per-attempt upload deadline")
	fs.IntVar(&p.MaxRetries, "retries", retries, "extra attempts per client per round")
	return p
}

// experimentCommand binds one or more registry entries as a command:
// the experiment-wide flags, each entry's own flags, and — for a
// single entry that has a JSON artefact — -out.
func experimentCommand(entries ...experiments.Entry) func(*flag.FlagSet) runFunc {
	return func(fs *flag.FlagSet) runFunc {
		scaleName := fs.String("scale", "ci", `experiment scale: "paper" (100 clients, 100 rounds, CNN) or "ci" (miniature)`)
		seed := seedFlag(fs, 42)
		faultRate := fs.Float64("faultrate", 0, "per-attempt client crash probability during training (0 = fault-free)")
		quorum := fs.Float64("quorum", 0, "minimum responding fraction per round under -faultrate (0 = commit regardless)")
		runs := make([]experiments.RunFunc, len(entries))
		for i, en := range entries {
			runs[i] = en.Bind(fs)
		}
		out := new(string)
		if len(entries) == 1 && entries[0].WriteJSON != nil {
			out = fs.String("out", "", "also write the rows as the experiment's JSON artefact to this path")
		}
		return func(ctx context.Context, e *env, _ []string) error {
			var scale experiments.Scale
			switch *scaleName {
			case "paper":
				scale = experiments.PaperScale()
			case "ci":
				scale = experiments.CIScale()
			default:
				return fmt.Errorf("unknown scale %q", *scaleName)
			}
			scale.Telemetry = e.reg
			scale.FaultRate = *faultRate
			scale.Quorum = *quorum
			scale.StoreOptions = e.storeOpts
			for i, en := range entries {
				start := time.Now()
				table, rows, err := runs[i](ctx, scale, *seed)
				if err != nil {
					return err
				}
				if *out != "" {
					var artefact bytes.Buffer
					if err := en.WriteJSON(&artefact, rows); err != nil {
						return err
					}
					if err := os.WriteFile(*out, artefact.Bytes(), 0o666); err != nil {
						return err
					}
					fmt.Fprintf(e.stderr, "%s benchmark written to %s\n", en.Name, *out)
				}
				e.printf("%s\n[%s completed in %v]\n\n", table, en.Name, time.Since(start).Round(time.Millisecond))
			}
			return nil
		}
	}
}
