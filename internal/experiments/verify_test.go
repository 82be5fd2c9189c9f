package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fuiov/internal/verify"
)

// TestVerifyForgettingProperty is the acceptance property of the
// verification suite, at the same CI scale and seed the harness tests
// use: on the backdoored deployment, retraining from scratch — the
// gold standard — must score at chance against the membership attack,
// the paper scheme must land within epsilon of it, and the trigger
// must be (mostly) gone from both. Runs under -race in the check.sh
// smoke batch.
func TestVerifyForgettingProperty(t *testing.T) {
	rows, err := VerifyStrategies(context.Background(), CIScale(), 47,
		[]string{"retrain", "paper"}, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]VerifyRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	retrain, paper := byName["retrain"], byName["paper"]

	// The attack must actually work: the pre-unlearn model leaks
	// membership of the poisoned shards.
	if retrain.MIAAdvantageBefore <= 0.05 {
		t.Errorf("attack finds no signal in the pre-unlearn model: advantage %v", retrain.MIAAdvantageBefore)
	}
	// Retraining never saw the forgotten data: ≈ chance.
	if adv := retrain.MIAAdvantageAfter; adv > 0.05 {
		t.Errorf("retrain MIA advantage %v, want ≤ 0.05 (≈ chance)", adv)
	}
	// The paper scheme must be within epsilon of the gold standard.
	if gap := paper.MIAAdvantageAfter - retrain.MIAAdvantageAfter; gap < -0.05 || gap > 0.05 {
		t.Errorf("paper MIA advantage %v vs retrain %v: |gap| > 0.05",
			paper.MIAAdvantageAfter, retrain.MIAAdvantageAfter)
	}
	for _, r := range []VerifyRow{retrain, paper} {
		if r.BackdoorBefore == nil || r.BackdoorAfter == nil {
			t.Fatalf("%s: backdoor scores missing on the backdoored deployment", r.Strategy)
		}
		if *r.BackdoorBefore < 0.5 {
			t.Errorf("%s: pre-unlearn backdoor success %v, want an implanted trigger (≥ 0.5)", r.Strategy, *r.BackdoorBefore)
		}
		if *r.BackdoorAfter >= *r.BackdoorBefore {
			t.Errorf("%s: unlearning did not reduce backdoor success (%v → %v)",
				r.Strategy, *r.BackdoorBefore, *r.BackdoorAfter)
		}
	}
	// Retrain genuinely forgets: if it re-memorizes at all, it must
	// not be faster than the paper scheme, which recovers from a
	// mid-history checkpoint.
	if paper.RelearnRounds > 0 && retrain.RelearnRounds > 0 && retrain.RelearnRounds < paper.RelearnRounds {
		t.Errorf("retrain re-memorized in %d rounds, faster than paper's %d",
			retrain.RelearnRounds, paper.RelearnRounds)
	}
}

// smokeVerifyConfig shrinks the suite for runtime-sensitive tests
// without disabling any code path.
func smokeVerifyConfig() verify.Config {
	return verify.Config{Shadows: 3, ShadowSteps: 40, RelearnCap: 8}
}

// TestVerifyStrategiesDeterministic is the bit-determinism contract at
// the harness level: two full runs produce identical rows.
func TestVerifyStrategiesDeterministic(t *testing.T) {
	var runs [2][]VerifyRow
	for i := range runs {
		rows, err := VerifyStrategies(context.Background(), CIScale(), 43,
			[]string{"paper"}, smokeVerifyConfig())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rows
	}
	if !reflect.DeepEqual(flattenRows(runs[0]), flattenRows(runs[1])) {
		t.Fatalf("verify harness not deterministic:\n%+v\nvs\n%+v", runs[0], runs[1])
	}
}

// flattenRows dereferences the optional pointers so DeepEqual compares
// values.
func flattenRows(rows []VerifyRow) []map[string]float64 {
	out := make([]map[string]float64, len(rows))
	deref := func(p *float64) float64 {
		if p == nil {
			return -1
		}
		return *p
	}
	for i, r := range rows {
		out[i] = map[string]float64{
			"acc":     r.Accuracy,
			"miaB":    r.MIAAdvantageBefore,
			"miaA":    r.MIAAdvantageAfter,
			"bdB":     deref(r.BackdoorBefore),
			"bdA":     deref(r.BackdoorAfter),
			"bdR":     deref(r.BackdoorRelearn),
			"relearn": float64(r.RelearnRounds),
			"thr":     r.RelearnThreshold,
		}
	}
	return out
}

// TestWriteVerifyJSONGolden pins the BENCH_verify.json schema: record
// envelope, per-row keys, and omission (not zeroing) of the optional
// backdoor fields.
func TestWriteVerifyJSONGolden(t *testing.T) {
	bdB, bdA := 0.9, 0.1
	rows := []VerifyRow{
		{
			Strategy: "paper",
			Accuracy: 0.75,
			Score: verify.Score{
				MIAAdvantageBefore: 0.2,
				MIAAdvantageAfter:  0.01,
				BackdoorBefore:     &bdB,
				BackdoorAfter:      &bdA,
				RelearnRounds:      7,
				RelearnThreshold:   0.8,
			},
		},
		{
			Strategy: "retrain",
			Accuracy: 0.8,
			Score: verify.Score{
				MIAAdvantageBefore: 0.2,
				RelearnRounds:      -1,
				RelearnThreshold:   0.8,
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteVerifyJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, key := range []string{
		`"experiment": "verify"`, `"rows"`, `"strategy"`, `"accuracy"`,
		`"mia_advantage_before"`, `"mia_advantage_after"`,
		`"backdoor_before"`, `"backdoor_after"`,
		`"relearn_rounds"`, `"relearn_threshold"`,
	} {
		if !strings.Contains(got, key) {
			t.Errorf("BENCH_verify.json missing %s:\n%s", key, got)
		}
	}
	// The retrain row has no backdoor measurements: the keys must be
	// absent, not zeroed — count occurrences.
	if n := strings.Count(got, `"backdoor_before"`); n != 1 {
		t.Errorf(`"backdoor_before" appears %d times, want 1 (omitted when nil)`, n)
	}
	if strings.Contains(got, `"backdoor_relearn"`) {
		t.Errorf(`"backdoor_relearn" present though no row set it:\n%s`, got)
	}

	var decoded struct {
		Experiment string      `json:"experiment"`
		Rows       []VerifyRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("BENCH_verify.json round-trip: %v", err)
	}
	if decoded.Experiment != "verify" || len(decoded.Rows) != len(rows) {
		t.Fatalf("JSON record lost rows: %+v", decoded)
	}
	if !reflect.DeepEqual(flattenRows(decoded.Rows), flattenRows(rows)) {
		t.Errorf("rows changed across the round-trip:\n%+v\nvs\n%+v", decoded.Rows, rows)
	}
	if decoded.Rows[1].BackdoorBefore != nil {
		t.Error("omitted backdoor field decoded as non-nil")
	}
}

// TestStrategyRowForgettingOmitted pins the graceful-degradation
// contract in BENCH_strategies.json: without verification the
// forgetting block is absent from the JSON, not an all-zero object;
// with it, the block appears.
func TestStrategyRowForgettingOmitted(t *testing.T) {
	plain, err := json.Marshal(StrategyRow{Strategy: "paper"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "forgetting") {
		t.Errorf("unverified row leaks a forgetting block: %s", plain)
	}
	verified, err := json.Marshal(StrategyRow{
		Strategy:   "paper",
		Forgetting: &verify.Score{MIAAdvantageAfter: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(verified), `"forgetting"`) ||
		!strings.Contains(string(verified), `"mia_advantage_after"`) {
		t.Errorf("verified row lost its forgetting block: %s", verified)
	}

	// The table renderer follows the same rule: no forgetting columns
	// unless some row was verified.
	rows := []StrategyRow{{Strategy: "paper"}}
	if out := FormatStrategies(rows); strings.Contains(out, "MIA") {
		t.Errorf("unverified table shows MIA columns:\n%s", out)
	}
	rows[0].Forgetting = &verify.Score{MIAAdvantageBefore: 0.2, MIAAdvantageAfter: 0.01}
	if out := FormatStrategies(rows); !strings.Contains(out, "MIA") {
		t.Errorf("verified table lost MIA columns:\n%s", out)
	}
}

// TestCompareStrategiesVerified smokes the combined harness: verified
// rows carry a forgetting block, and the plain entry point leaves it
// nil.
func TestCompareStrategiesVerified(t *testing.T) {
	cfg := smokeVerifyConfig()
	cfg.SkipRelearn = true
	rows, err := CompareStrategiesVerified(context.Background(), CIScale(), 47, []string{"paper"}, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Forgetting == nil {
		t.Fatalf("verified harness returned no forgetting block: %+v", rows)
	}
	if rows[0].Forgetting.RelearnRounds != -1 {
		t.Errorf("SkipRelearn leaked a relearn round count: %d", rows[0].Forgetting.RelearnRounds)
	}
	plain, err := CompareStrategiesVerified(context.Background(), CIScale(), 47, []string{"paper"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Forgetting != nil {
		t.Fatalf("plain harness attached a forgetting block: %+v", plain)
	}
}
