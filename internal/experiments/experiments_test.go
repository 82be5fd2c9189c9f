package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestScaleValidation(t *testing.T) {
	if err := CIScale().Validate(); err != nil {
		t.Errorf("CIScale invalid: %v", err)
	}
	if err := PaperScale().Validate(); err != nil {
		t.Errorf("PaperScale invalid: %v", err)
	}
	bad := CIScale()
	bad.Clients = 1
	if err := bad.Validate(); err == nil {
		t.Error("1 client should be invalid")
	}
	bad = CIScale()
	bad.Rounds = bad.ForgottenJoinRound
	if err := bad.Validate(); err == nil {
		t.Error("rounds <= join round should be invalid")
	}
	bad = CIScale()
	bad.MaliciousFraction = 1
	if err := bad.Validate(); err == nil {
		t.Error("malicious fraction 1 should be invalid")
	}
	bad = CIScale()
	bad.LearningRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero lr should be invalid")
	}
}

// TestScaleRejectsNaN: a NaN field fails its range check instead of
// slipping past both ends of it, and so does an infinite learning
// rate.
func TestScaleRejectsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		set  func(*Scale)
	}{
		{"learning rate", func(s *Scale) { s.LearningRate = nan }},
		{"learning rate +Inf", func(s *Scale) { s.LearningRate = math.Inf(1) }},
		{"malicious fraction", func(s *Scale) { s.MaliciousFraction = nan }},
		{"fault rate", func(s *Scale) { s.FaultRate = nan }},
		{"quorum", func(s *Scale) { s.Quorum = nan }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := CIScale()
			tc.set(&s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted it")
			}
		})
	}
}

func TestDeploymentConstruction(t *testing.T) {
	dep, err := NewDeployment(Digits, NoAttack, CIScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Clients) != CIScale().Clients {
		t.Errorf("clients = %d", len(dep.Clients))
	}
	if len(dep.Malicious) != 0 {
		t.Errorf("no-attack deployment has malicious clients: %v", dep.Malicious)
	}
	if got := dep.Forgotten(); len(got) != 1 {
		t.Errorf("Forgotten = %v, want single benign client", got)
	}
	// Attack deployment marks ~20%.
	atk, err := NewDeployment(Digits, BackdoorAttack, CIScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(atk.Malicious) != 2 { // 20% of 10
		t.Errorf("malicious = %v, want 2 clients", atk.Malicious)
	}
	if atk.Backdoor == nil {
		t.Error("backdoor deployment missing trigger instance")
	}
	if got := atk.Forgotten(); len(got) != 2 {
		t.Errorf("Forgotten = %v", got)
	}
	if _, err := NewDeployment(DatasetKind(99), NoAttack, CIScale(), 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestTable1CIScale(t *testing.T) {
	rows, err := Table1(context.Background(), CIScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-14s retrain=%.3f fedrecover=%.3f fedrecovery=%.3f ours=%.3f",
			r.Dataset, r.Retraining, r.FedRecover, r.FedRecovery, r.Ours)
		for name, acc := range map[string]float64{
			"Retraining": r.Retraining, "FedRecover": r.FedRecover,
			"FedRecovery": r.FedRecovery, "Ours": r.Ours,
		} {
			if acc < 0 || acc > 1 {
				t.Errorf("%s %s accuracy out of range: %v", r.Dataset, name, acc)
			}
		}
		// All methods must beat chance (10 or 12 classes → ~0.1).
		if r.Ours < 0.12 {
			t.Errorf("%s: our method at/below chance: %v", r.Dataset, r.Ours)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "MNIST") {
		t.Errorf("FormatTable1 output malformed:\n%s", out)
	}
}

func TestFigure1CIScale(t *testing.T) {
	rows, err := Figure1(context.Background(), CIScale(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-10s before=%.2f forgotten=%.2f recovered=%.2f (acc %.2f/%.2f/%.2f)",
			r.Attack, r.BeforeUnlearning, r.AfterForgetting, r.AfterRecovery,
			r.AccBefore, r.AccForgotten, r.AccRecovered)
		// The paper's headline: forgetting collapses the ASR, and
		// recovery does not reintroduce it.
		if r.AfterForgetting > r.BeforeUnlearning+0.05 {
			t.Errorf("%s: forgetting increased ASR %.2f -> %.2f",
				r.Attack, r.BeforeUnlearning, r.AfterForgetting)
		}
		if r.AfterRecovery > r.BeforeUnlearning+0.05 {
			t.Errorf("%s: recovery resurrected the attack: %.2f -> %.2f",
				r.Attack, r.BeforeUnlearning, r.AfterRecovery)
		}
	}
	out := FormatFigure1(rows)
	if !strings.Contains(out, "Fig. 1") {
		t.Errorf("FormatFigure1 malformed:\n%s", out)
	}
}

func TestFigure2CIScale(t *testing.T) {
	points, err := Figure2(context.Background(), CIScale(), 44, []float64{0.01, 1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		t.Logf("L=%-6.2g acc=%.3f", p.Value, p.Accuracy)
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("L=%v: accuracy %v out of range", p.Value, p.Accuracy)
		}
	}
	out := FormatSweep("Fig. 2", "L", points)
	if !strings.Contains(out, "Fig. 2") {
		t.Error("FormatSweep malformed")
	}
}

func TestFigure3CIScale(t *testing.T) {
	points, err := Figure3(context.Background(), CIScale(), 45, []float64{1e-8, 1e-4, 1e-1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		t.Logf("delta=%-8.2g acc=%.3f", p.Value, p.Accuracy)
	}
	// δ=0.1 wipes out nearly all direction information; it must not
	// beat the small-δ setting.
	if points[2].Accuracy > points[0].Accuracy+0.1 {
		t.Errorf("huge delta (%v acc %.3f) outperformed tiny delta (%v acc %.3f)",
			points[2].Value, points[2].Accuracy, points[0].Value, points[0].Accuracy)
	}
}

func TestStorageCIScale(t *testing.T) {
	rows, err := Storage(context.Background(), CIScale(), 46)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s dir=%dB full=%dB savings=%.1f%%",
			r.Dataset, r.DirectionBytes, r.FullGradientBytes, 100*r.MeasuredSavings)
		if r.MeasuredSavings < 0.95 {
			t.Errorf("%s: savings %.3f below the paper's ~95%% claim", r.Dataset, r.MeasuredSavings)
		}
		if r.DirectionBytes <= 0 || r.FullGradientBytes <= r.DirectionBytes {
			t.Errorf("%s: implausible byte counts %+v", r.Dataset, r)
		}
	}
	if out := FormatStorage(rows); !strings.Contains(out, "95%") {
		t.Error("FormatStorage malformed")
	}
}

func TestAblationsCIScale(t *testing.T) {
	scale := CIScale()
	clip, err := AblationClipping(context.Background(), scale, 47)
	if err != nil {
		t.Fatal(err)
	}
	if len(clip) != 3 {
		t.Fatalf("clipping rows = %d", len(clip))
	}
	for _, r := range clip {
		t.Logf("clip %-12s acc=%.3f", r.Setting, r.Accuracy)
	}

	refresh, err := AblationRefresh(context.Background(), scale, 47, []int{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(refresh) != 2 {
		t.Fatalf("refresh rows = %d", len(refresh))
	}
	for _, r := range refresh {
		t.Logf("refresh %-10s acc=%.3f", r.Setting, r.Accuracy)
	}

	boot, err := AblationBootstrap(context.Background(), scale, 47)
	if err != nil {
		t.Fatal(err)
	}
	if len(boot) != 2 {
		t.Fatalf("bootstrap rows = %d", len(boot))
	}
	for _, r := range boot {
		t.Logf("bootstrap %-18s acc=%.3f", r.Setting, r.Accuracy)
	}
	if out := FormatAblation("A1", clip); !strings.Contains(out, "elementwise") {
		t.Error("FormatAblation malformed")
	}

	hetero, err := AblationHeterogeneity(context.Background(), scale, 47, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hetero) != 2 {
		t.Fatalf("heterogeneity rows = %d", len(hetero))
	}
	if hetero[0].Setting != "iid" || !strings.Contains(hetero[1].Setting, "dirichlet") {
		t.Errorf("heterogeneity settings = %+v", hetero)
	}
	for _, r := range hetero {
		t.Logf("heterogeneity %-16s acc=%.3f", r.Setting, r.Accuracy)
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Errorf("accuracy out of range: %+v", r)
		}
	}
}

func TestStoreFromFullMatchesDirectStore(t *testing.T) {
	dep, err := NewDeployment(Digits, NoAttack, CIScale(), 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := StoreFromFull(dep.Full, dep.Store.Delta())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Rounds() != dep.Store.Rounds() {
		t.Fatalf("rounds %d vs %d", rebuilt.Rounds(), dep.Store.Rounds())
	}
	for round := 0; round < rebuilt.Rounds(); round++ {
		a, err := dep.Store.Participants(round)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.Participants(round)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("round %d participants %v vs %v", round, b, a)
		}
		for i := range a {
			da, err := dep.Store.Direction(round, a[i])
			if err != nil {
				t.Fatal(err)
			}
			db, err := rebuilt.Direction(round, b[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < da.Len(); j++ {
				if da.At(j) != db.At(j) {
					t.Fatalf("round %d client %d dir[%d] mismatch", round, a[i], j)
				}
			}
		}
	}
	// Join rounds preserved (critical for backtracking).
	for _, id := range dep.Store.Clients() {
		wantJoin, err := dep.Store.JoinRound(id)
		if err != nil {
			t.Fatal(err)
		}
		gotJoin, err := rebuilt.JoinRound(id)
		if err != nil {
			t.Fatal(err)
		}
		if wantJoin != gotJoin {
			t.Fatalf("client %d join %d vs %d", id, gotJoin, wantJoin)
		}
	}
}

func TestCostTableCIScale(t *testing.T) {
	rows, err := CostTable(context.Background(), CIScale(), 49)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]CostRow{}
	for _, r := range rows {
		byName[r.Method] = r
		t.Logf("%-12s grads=%d comm=%dB storage=%dB",
			r.Method, r.ClientGradComputations, r.ClientCommBytes, r.ServerGradStorageBytes)
	}
	// The paper's qualitative cost claims:
	if byName["Ours"].ClientGradComputations != 0 || byName["Ours"].ClientCommBytes != 0 {
		t.Error("our method must need no client work during recovery")
	}
	if byName["FedRecovery"].ClientGradComputations != 0 {
		t.Error("FedRecovery is server-side")
	}
	if byName["Retraining"].ClientGradComputations <= byName["FedRecover"].ClientGradComputations {
		t.Error("retraining should cost clients more than FedRecover")
	}
	if byName["FedRecover"].ClientGradComputations == 0 {
		t.Error("FedRecover needs online clients")
	}
	if byName["Ours"].ServerGradStorageBytes*10 > byName["FedRecover"].ServerGradStorageBytes {
		t.Errorf("direction storage (%d) should be far below full storage (%d)",
			byName["Ours"].ServerGradStorageBytes, byName["FedRecover"].ServerGradStorageBytes)
	}
	if out := FormatCost(rows); !strings.Contains(out, "Ours") {
		t.Error("FormatCost malformed")
	}
}
