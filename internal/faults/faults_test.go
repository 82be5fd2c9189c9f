package faults

import (
	"math"
	"testing"
	"time"

	"fuiov/internal/history"
)

func TestPlanDeterminism(t *testing.T) {
	spec := Spec{CrashProb: 0.3, DelayMin: time.Millisecond, DelayMax: 20 * time.Millisecond, CorruptProb: 0.1}
	a := NewPlan(7, spec)
	b := NewPlan(7, spec)
	for id := history.ClientID(0); id < 10; id++ {
		for round := 0; round < 20; round++ {
			for attempt := 0; attempt < 3; attempt++ {
				oa := a.Outcome(id, round, attempt)
				ob := b.Outcome(id, round, attempt)
				if oa != ob {
					t.Fatalf("outcome(%d,%d,%d) differs: %+v vs %+v", id, round, attempt, oa, ob)
				}
			}
		}
	}
}

func TestPlanSeedSensitivity(t *testing.T) {
	spec := Spec{CrashProb: 0.5}
	a, b := NewPlan(1, spec), NewPlan(2, spec)
	same := true
	for id := history.ClientID(0); id < 20 && same; id++ {
		for round := 0; round < 20; round++ {
			if a.Outcome(id, round, 0) != b.Outcome(id, round, 0) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("plans with different seeds produced identical outcomes everywhere")
	}
}

func TestPlanCrashRate(t *testing.T) {
	p := NewPlan(42, Spec{CrashProb: 0.3})
	crashes, total := 0, 0
	for id := history.ClientID(0); id < 50; id++ {
		for round := 0; round < 100; round++ {
			total++
			if p.Outcome(id, round, 0).Crash {
				crashes++
			}
		}
	}
	rate := float64(crashes) / float64(total)
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("crash rate %.3f, want ≈0.30", rate)
	}
}

func TestFlakyEvery(t *testing.T) {
	p := NewPlan(1, Spec{FlakyEvery: 4})
	for round := 0; round < 20; round++ {
		want := (round+1)%4 == 0
		for attempt := 0; attempt < 3; attempt++ {
			if got := p.Outcome(3, round, attempt).Crash; got != want {
				t.Fatalf("round %d attempt %d: crash = %v, want %v", round, attempt, got, want)
			}
		}
	}
}

func TestFixedAndRandomDelay(t *testing.T) {
	fixed := NewPlan(1, Spec{DelayMin: 5 * time.Millisecond, DelayMax: 5 * time.Millisecond})
	if d := fixed.Outcome(0, 0, 0).Delay; d != 5*time.Millisecond {
		t.Fatalf("fixed delay = %v, want 5ms", d)
	}
	random := NewPlan(1, Spec{DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond})
	seen := map[time.Duration]bool{}
	for round := 0; round < 50; round++ {
		d := random.Outcome(0, round, 0).Delay
		if d < time.Millisecond || d >= 10*time.Millisecond {
			t.Fatalf("random delay %v outside [1ms, 10ms)", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("random delay produced only %d distinct values over 50 rounds", len(seen))
	}
}

func TestPerClientOverride(t *testing.T) {
	p := NewPlan(1, Spec{}).SetClient(5, Spec{CrashProb: 1})
	if p.Outcome(4, 0, 0).Crash {
		t.Fatal("default client crashed under zero spec")
	}
	if !p.Outcome(5, 0, 0).Crash {
		t.Fatal("overridden client did not crash under CrashProb 1")
	}
	if got := p.SpecFor(5).CrashProb; got != 1 {
		t.Fatalf("SpecFor(5).CrashProb = %v, want 1", got)
	}
}

func TestRetriesCanSucceed(t *testing.T) {
	p := NewPlan(9, Spec{CrashProb: 0.5})
	recovered := false
	for id := history.ClientID(0); id < 30 && !recovered; id++ {
		for round := 0; round < 30; round++ {
			if p.Outcome(id, round, 0).Crash && !p.Outcome(id, round, 1).Crash {
				recovered = true
				break
			}
		}
	}
	if !recovered {
		t.Fatal("no attempt-0 crash was followed by an attempt-1 success; retries cannot help")
	}
}

func TestCorruptInPlaceAndValid(t *testing.T) {
	g := make([]float64, 64)
	for i := range g {
		g[i] = 0.5
	}
	if !Valid(g) {
		t.Fatal("clean vector reported invalid")
	}
	a := append([]float64(nil), g...)
	b := append([]float64(nil), g...)
	CorruptInPlace(a, 3, 1, 2, 0)
	CorruptInPlace(b, 3, 1, 2, 0)
	changed := false
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("corruption is not deterministic at element %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != g[i] || math.IsNaN(a[i]) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("corruption changed nothing")
	}
	if Valid(a) {
		// The corruption may have produced only huge finite values;
		// those are finite but enormous. Valid only checks finiteness,
		// so force a NaN check by corrupting until invalid or accept
		// huge values as the engine's magnitude check is finiteness
		// only when no NaN was drawn.
		hasHuge := false
		for _, v := range a {
			if math.Abs(v) > 1e20 {
				hasHuge = true
			}
		}
		if !hasHuge {
			t.Fatal("corrupted vector is Valid and has no huge elements")
		}
	}
	if Valid(nil) {
		t.Fatal("empty vector reported valid")
	}
	if Valid([]float64{1, math.Inf(1)}) {
		t.Fatal("vector with +Inf reported valid")
	}
}

func TestFuncInjector(t *testing.T) {
	inj := Func(func(id history.ClientID, round, attempt int) Outcome {
		return Outcome{Crash: id == 1}
	})
	if !inj.Outcome(1, 0, 0).Crash || inj.Outcome(2, 0, 0).Crash {
		t.Fatal("Func adapter did not forward")
	}
}

func TestCrashAtDeterministicRounds(t *testing.T) {
	p := NewPlan(1, Spec{CrashAt: []int{2, 5}})
	for round := 0; round < 8; round++ {
		want := round == 2 || round == 5
		for attempt := 0; attempt < 3; attempt++ {
			if got := p.Outcome(0, round, attempt).Crash; got != want {
				t.Fatalf("round %d attempt %d: crash = %v, want %v", round, attempt, got, want)
			}
		}
	}
}

func TestCorruptAtFirstAttemptOnly(t *testing.T) {
	p := NewPlan(1, Spec{CorruptAt: []int{3}})
	for round := 0; round < 6; round++ {
		for attempt := 0; attempt < 3; attempt++ {
			want := round == 3 && attempt == 0
			if got := p.Outcome(0, round, attempt).Corrupt; got != want {
				t.Fatalf("round %d attempt %d: corrupt = %v, want %v (retries must be clean)", round, attempt, got, want)
			}
		}
	}
}

func TestCrashAtPerClientOverride(t *testing.T) {
	p := NewPlan(1, Spec{}).SetClient(3, Spec{CrashAt: []int{1}, CorruptAt: []int{0}})
	if p.Outcome(2, 1, 0).Crash || p.Outcome(2, 0, 0).Corrupt {
		t.Fatal("fault lists leaked onto a non-overridden client")
	}
	if !p.Outcome(3, 1, 0).Crash {
		t.Fatal("CrashAt round did not crash the overridden client")
	}
	if !p.Outcome(3, 0, 0).Corrupt {
		t.Fatal("CorruptAt round did not corrupt the overridden client's first attempt")
	}
}

// Valid reports whether an upload is usable: non-empty with every
// element finite.
func Valid(g []float64) bool {
	if len(g) == 0 {
		return false
	}
	for _, v := range g {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
