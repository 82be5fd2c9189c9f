// Package simtest is a seeded, fully deterministic scenario-simulation
// harness for the composed system: it generates randomized schedules —
// clients joining and leaving at arbitrary rounds, unlearn requests at
// arbitrary backtrack depths, deterministic fault injection, snapshot
// spilling, mid-run save/load resume and varying parallelism — executes
// them through the public fuiov facade, and asserts the paper-level
// invariants after every run:
//
//   - the unlearned model is bit-identical to an independently
//     recomputed backtrack to w_F (eq. 5), with F re-derived from the
//     membership log;
//   - training and recovery results are bit-identical at Parallelism=1
//     versus GOMAXPROCS, and with the spill tier on versus off;
//   - a mid-scenario Store.Save/Load resume continues the trajectory
//     bit-identically, down to the snapshot bytes;
//   - a commit pass overlapped with training commits the same result
//     and store bytes as a stop-the-world pass over the final history;
//   - Storage() resident/spilled accounting is internally consistent.
//
// On failure the harness shrinks the scenario to a minimal reproducer
// (greedy delta debugging over the schedule grammar: fewer rounds,
// fewer clients, fewer faults, simpler knobs) and prints a one-line
// replay command carrying the generator seed and the shrunk schedule
// JSON, so a CI failure is reproducible locally with a copy-paste.
// Scenario execution is a pure function of the schedule, so the shrink
// is deterministic: the same seed always reduces to the same minimal
// schedule and failure message.
//
// The harness ships as an ordinary `go test` entry: TestScenarioSmoke
// checks a fixed batch of generated schedules (the CI smoke mode),
// `-long` widens it to a soak batch, and TestReplay re-executes a
// single `-seed` or `-schedule` reproducer. See DESIGN.md §12.
package simtest
