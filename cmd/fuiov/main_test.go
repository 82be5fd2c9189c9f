package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fuiov/internal/experiments"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/unlearn"
	"fuiov/internal/unlearn/strategy"
)

// fuiov runs the front door in-process and returns what it printed.
func fuiov(ctx context.Context, args ...string) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	err = run(ctx, args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// writeSnapshot trains the shared IoV scenario for a few rounds and
// persists its history — the file the hist commands operate on.
func writeSnapshot(t *testing.T) (path string, forget history.ClientID) {
	t.Helper()
	const rounds = 10
	f, err := newFleet(&env{}, 5, rounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer f.store.Close()
	sim, err := fl.NewSimulation(f.model, f.clients, fl.Config{LearningRate: 0.12, Seed: 7, Schedule: f.trace, Store: f.store})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "snap.bin")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Save(file); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	return path, f.store.Clients()[0]
}

// TestHist drives the three snapshot tools on a snapshot built here.
// `hist unlearn -out` must write exactly the parameters an in-process
// strategy.Unlearn recovers from the same snapshot, resident and
// spilled.
func TestHist(t *testing.T) {
	ctx := context.Background()
	snap, forget := writeSnapshot(t)

	stdout, _, err := fuiov(ctx, "hist", "stats", snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "rounds:            10\n") {
		t.Errorf("hist stats does not report the 10 recorded rounds:\n%s", stdout)
	}
	stdout, _, err = fuiov(ctx, "hist", "stats", "-spill-window", "3", snap)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout, " 0 spilled)") {
		t.Errorf("hist stats -spill-window 3 spilled nothing:\n%s", stdout)
	}

	stdout, _, err = fuiov(ctx, "hist", "clients", snap)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(stdout, "\n"); !strings.HasPrefix(stdout, "client ") || lines < 2 {
		t.Errorf("hist clients printed no membership rows:\n%s", stdout)
	}

	file, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	store, err := history.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	want, err := strategy.Unlearn(ctx, "paper", strategy.Request{
		Forgotten:    []history.ClientID{forget},
		Store:        store,
		LearningRate: 0.12,
		Unlearn:      unlearn.Config{ClipThreshold: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make([]byte, 8*len(want.Params))
	for i, v := range want.Params {
		binary.LittleEndian.PutUint64(wantBytes[i*8:], math.Float64bits(v))
	}
	for _, spill := range [][]string{nil, {"-spill-window", "3"}} {
		out := filepath.Join(t.TempDir(), "recovered.bin")
		args := append([]string{"hist", "unlearn", "-client", fmt.Sprint(forget), "-lr", "0.12", "-out", out}, spill...)
		stdout, _, err := fuiov(ctx, append(args, snap)...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(stdout, "forgot client") {
			t.Errorf("%v: no result line:\n%s", args, stdout)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%v: -out differs from the in-process strategy.Unlearn parameters", args)
		}
	}
}

// TestUnknownCommand: a name nothing registered is answered with every
// command that is — experiments included, so the list cannot drift
// from the registry.
func TestUnknownCommand(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, {"hist", "bogus", "snap.bin"}, {"hist"}} {
		_, _, err := fuiov(context.Background(), args...)
		if err == nil {
			t.Fatalf("%v: accepted", args)
		}
		for _, name := range names(commands()) {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: error does not name command %q: %v", args, name, err)
			}
		}
	}
	for _, en := range experiments.Entries() {
		if _, _, err := lookup(commands(), []string{en.Name}); err != nil {
			t.Errorf("experiment %q is registered but not a command: %v", en.Name, err)
		}
	}
}

// TestSharedFlagsRejected: the shared setup validates -metrics and the
// spill pair once, so every command rejects a bad value the same way —
// before doing any work.
func TestSharedFlagsRejected(t *testing.T) {
	for _, name := range names(commands()) {
		for flags, want := range map[string]string{
			"-spill-dir /tmp": "-spill-dir requires -spill-window",
			"-metrics bogus":  "unknown -metrics mode",
		} {
			args := append(strings.Fields(name), strings.Fields(flags)...)
			_, _, err := fuiov(context.Background(), args...)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("fuiov %s %s: err = %v, want %q", name, flags, err, want)
			}
		}
	}
}

// TestCancelled: every long-running command runs under the context the
// front door hands it, so a cancelled context stops it promptly.
func TestCancelled(t *testing.T) {
	snap, forget := writeSnapshot(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"iov", "-vehicles", "5", "-rounds", "10"},
		{"hist", "unlearn", "-client", fmt.Sprint(forget), "-lr", "0.12", snap},
		{"scale", "-clients", "1000000"},
	} {
		start := time.Now()
		_, _, err := fuiov(ctx, args...)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", args, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%v: took %v to notice the cancellation", args, d)
		}
	}
}

// TestScaleClientsStrict: -clients takes integers only; the Sscanf
// parse this replaces read "1e6" as 1 and "10k" as 10.
func TestScaleClientsStrict(t *testing.T) {
	for _, bad := range []string{"1e6", "10k", "0", "-5", "1000,x"} {
		_, _, err := fuiov(context.Background(), "scale", "-clients", bad, "-rounds", "1")
		if err == nil || !strings.Contains(err.Error(), "-clients") {
			t.Errorf("scale -clients %s: err = %v, want a -clients parse error", bad, err)
		}
	}
}

// TestArtefactOnlyOnRequest: an artefact-writing experiment prints its
// table and leaves the working directory alone unless -out names a
// path.
func TestArtefactOnlyOnRequest(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	stdout, _, err := fuiov(context.Background(), "scale", "-clients", "500", "-rounds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "[scale completed in") {
		t.Errorf("no scale table:\n%s", stdout)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("scale without -out wrote %v", left)
	}
	if _, _, err := fuiov(context.Background(), "scale", "-clients", "500", "-rounds", "1", "-out", "rows.json"); err != nil {
		t.Fatal(err)
	}
	rows, err := os.ReadFile(filepath.Join(dir, "rows.json"))
	if err != nil || !bytes.Contains(rows, []byte(`"experiment": "scale"`)) {
		t.Errorf("scale -out rows.json: %v\n%s", err, rows)
	}
}

// TestRSUStreamsRoundEvents: -metrics means the same thing on every
// command, so the networked demo streams per-round events too.
func TestRSUStreamsRoundEvents(t *testing.T) {
	_, stderr, err := fuiov(context.Background(), "rsu", "-vehicles", "4", "-rounds", "6", "-window", "1s", "-metrics", "json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, `"msg":"round"`) || !strings.Contains(stderr, `"scope":"fl"`) {
		t.Errorf("rsu -metrics json streamed no per-round event:\n%s", stderr)
	}
	if !strings.Contains(stderr, "== metrics snapshot ==") {
		t.Errorf("rsu -metrics json printed no final snapshot")
	}
}

// TestRSURejectsNonFiniteDelta: -delta NaN (or Inf) would make every
// sign upload an all-zero direction, so the demo refuses it before any
// agent trains.
func TestRSURejectsNonFiniteDelta(t *testing.T) {
	for _, delta := range []string{"NaN", "+Inf"} {
		_, _, err := fuiov(context.Background(), "rsu", "-vehicles", "2", "-rounds", "1", "-encoding", "sign", "-delta", delta)
		if err == nil || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("rsu -delta %s: err = %v, want a threshold error", delta, err)
		}
	}
}

// TestIoVRecovers: a tiny end-to-end scenario trains, erases a dropout
// vehicle and reports the recovery.
func TestIoVRecovers(t *testing.T) {
	stdout, _, err := fuiov(context.Background(), "iov", "-vehicles", "6", "-rounds", "25")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "recovered over 25 rounds") {
		t.Errorf("iov did not reach its recovery line:\n%s", stdout)
	}
}

// TestCommandsDocumented diffs the command table against the docs, in
// the style of server's TestRoutesDocumented: README's command table
// has one "| `fuiov <name>` |" row per command and no other, and
// DESIGN.md's cmd/fuiov row names each one.
func TestCommandsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var designRow string
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "| `cmd/fuiov` |") {
			designRow = line
		}
	}
	registered := make(map[string]bool)
	for _, name := range names(commands()) {
		registered[name] = true
		if !strings.Contains(string(readme), "| `fuiov "+name+"` |") {
			t.Errorf("command %q has no row in README.md's command table", name)
		}
		if !strings.Contains(designRow, "`"+name+"`") {
			t.Errorf("command %q is not named in DESIGN.md's cmd/fuiov row", name)
		}
	}
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `fuiov ") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `fuiov "), "`")
		if !registered[name] {
			t.Errorf("README.md's command table documents %q, which is not a command", name)
		}
	}
}
