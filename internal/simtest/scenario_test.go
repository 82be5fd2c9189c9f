package simtest

import (
	"strings"
	"testing"
)

// TestGenerateDeterministic pins the generator contract: same seed,
// same schedule, byte for byte.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := generate(seed), generate(seed)
		if a.Encode() != b.Encode() {
			t.Fatalf("seed %d generated two different schedules", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d generated invalid schedule: %v", seed, err)
		}
	}
	if generate(1).Encode() == generate(2).Encode() {
		t.Fatal("distinct seeds generated identical schedules")
	}
}

// TestScenarioCodecRoundTrip pins the `-schedule` JSON as a lossless
// replay format.
func TestScenarioCodecRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		sc := generate(seed)
		enc := sc.Encode()
		dec, err := decodeScenario(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if dec.Encode() != enc {
			t.Fatalf("seed %d: round trip changed the schedule:\n%s\n%s", seed, enc, dec.Encode())
		}
	}
}

// TestDecodeScenarioRejects covers the decode error paths: junk,
// unknown fields, and schedules outside the grammar.
func TestDecodeScenarioRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantErr string
	}{
		{"junk", "not json", "decode schedule"},
		{"unknown_field", `{"seed":1,"bogus":true}`, "decode schedule"},
		{"zero_rounds", `{"seed":1,"rounds":0}`, "rounds 0"},
		{"forget_unknown", strings.Replace(generate(3).Encode(), `"forget":[`, `"forget":[99,`, 1), "unknown client 99"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeScenario(tc.in); err == nil {
				t.Fatalf("decoded invalid schedule %q", tc.in)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateBounds spot-checks the grammar's edges.
func TestValidateBounds(t *testing.T) {
	base := generate(5)
	mutate := func(f func(*Scenario)) *Scenario {
		sc := cloneScenario(base)
		f(&sc)
		return &sc
	}
	for _, tc := range []struct {
		name string
		sc   *Scenario
	}{
		{"rounds_over_max", mutate(func(s *Scenario) { s.Rounds = maxRounds + 1 })},
		{"no_clients", mutate(func(s *Scenario) { s.Clients = nil })},
		{"dup_ids", mutate(func(s *Scenario) { s.Clients[1].ID = s.Clients[0].ID })},
		{"join_past_end", mutate(func(s *Scenario) { s.Clients[0].Join = s.Rounds })},
		{"leave_before_join", mutate(func(s *Scenario) { s.Clients[0].Join = 2; s.Clients[0].Leave = 1 })},
		{"crash_past_end", mutate(func(s *Scenario) { s.Clients[0].CrashAt = []int{s.Rounds} })},
		{"batch_over_shard", mutate(func(s *Scenario) { s.Clients[0].BatchSize = s.Clients[0].Samples + 1 })},
		{"saveload_past_end", mutate(func(s *Scenario) { s.SaveLoadAt = s.Rounds })},
		{"bad_clip_mode", mutate(func(s *Scenario) { s.ClipMode = "sometimes" })},
		{"zero_clip", mutate(func(s *Scenario) { s.ClipThreshold = 0 })},
		{"pair_size_zero", mutate(func(s *Scenario) { s.PairSize = 0 })},
		{"quorum_over_one", mutate(func(s *Scenario) { s.Quorum = 1.5 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.sc.Validate(); err == nil {
				t.Fatal("invalid scenario passed Validate")
			}
		})
	}
}
