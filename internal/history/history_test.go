package history

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"fuiov/internal/rng"
)

func testStore(t *testing.T, dim int) *Store {
	t.Helper()
	s, err := NewStore(dim, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func grad(r *rng.RNG, dim int) []float64 {
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.NormalScaled(0, 0.1)
	}
	return g
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0, 0); err == nil {
		t.Error("dim=0 should error")
	}
	if _, err := NewStore(10, -1); err == nil {
		t.Error("negative delta should error")
	}
}

// TestNewStoreRejectsNonFiniteDelta: a NaN or infinite threshold
// would compress every gradient to an all-zero direction, so neither
// NewStore nor Load — whose snapshot header carries δ — accepts one.
func TestNewStoreRejectsNonFiniteDelta(t *testing.T) {
	for _, delta := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewStore(3, delta); err == nil {
			t.Errorf("NewStore accepted delta %v", delta)
		}
	}
	s := testStore(t, 3)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(withDelta(buf.Bytes(), math.NaN()))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("Load of a NaN-delta snapshot: err = %v, want ErrBadFormat", err)
	}
}

// withDelta returns a copy of snapshot with δ in its header (after the
// 8-byte magic and the 8-byte dimension) replaced.
func withDelta(snapshot []byte, delta float64) []byte {
	out := bytes.Clone(snapshot)
	binary.LittleEndian.PutUint64(out[16:], math.Float64bits(delta))
	return out
}

func TestRecordAndRetrieve(t *testing.T) {
	s := testStore(t, 4)
	r := rng.New(1)
	model := []float64{1, 2, 3, 4}
	g1 := grad(r, 4)
	err := s.RecordRound(0, model,
		map[ClientID][]float64{1: g1},
		map[ClientID]float64{1: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("model[%d] = %v, want %v", i, got[i], model[i])
		}
	}
	// Returned model is a copy.
	got[0] = 99
	again, _ := s.Model(0)
	if again[0] == 99 {
		t.Error("Model returned a live view")
	}
	d, err := s.Direction(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g1 {
		want := 0.0
		if v > 1e-6 {
			want = 1
		} else if v < -1e-6 {
			want = -1
		}
		if d.At(i) != want {
			t.Fatalf("direction[%d] = %v, want %v", i, d.At(i), want)
		}
	}
	w, err := s.Weight(0, 1)
	if err != nil || w != 5 {
		t.Fatalf("Weight = %v, %v", w, err)
	}
}

func TestRecordOrderEnforced(t *testing.T) {
	s := testStore(t, 2)
	if err := s.RecordRound(1, []float64{0, 0}, nil, nil); err == nil {
		t.Error("out-of-order round should error")
	}
	if err := s.RecordRound(0, []float64{0, 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRound(0, []float64{0, 0}, nil, nil); err == nil {
		t.Error("duplicate round should error")
	}
}

func TestRecordDimensionChecks(t *testing.T) {
	s := testStore(t, 3)
	if err := s.RecordRound(0, []float64{1, 2}, nil, nil); err == nil {
		t.Error("wrong model dim should error")
	}
	err := s.RecordRound(0, []float64{1, 2, 3},
		map[ClientID][]float64{1: {1, 2}}, nil)
	if err == nil {
		t.Error("wrong gradient dim should error")
	}
}

func TestMissingRecords(t *testing.T) {
	s := testStore(t, 2)
	if _, err := s.Model(0); !errors.Is(err, ErrNoRecord) {
		t.Errorf("Model: err = %v, want ErrNoRecord", err)
	}
	if _, err := s.Direction(0, 1); !errors.Is(err, ErrNoRecord) {
		t.Errorf("Direction: err = %v, want ErrNoRecord", err)
	}
	mustRecord(t, s, 0, []float64{0, 0}, map[ClientID][]float64{1: {1, 1}})
	if _, err := s.Direction(0, 99); !errors.Is(err, ErrNoRecord) {
		t.Errorf("absent client: err = %v, want ErrNoRecord", err)
	}
	if _, err := s.Weight(0, 99); !errors.Is(err, ErrNoRecord) {
		t.Errorf("absent weight: err = %v, want ErrNoRecord", err)
	}
	if _, err := s.Participants(5); !errors.Is(err, ErrNoRecord) {
		t.Errorf("absent round: err = %v, want ErrNoRecord", err)
	}
	if _, err := s.MembershipOf(99); !errors.Is(err, ErrNoRecord) {
		t.Errorf("absent member: err = %v, want ErrNoRecord", err)
	}
}

func mustRecord(t *testing.T, s *Store, round int, model []float64, grads map[ClientID][]float64) {
	t.Helper()
	if err := s.RecordRound(round, model, grads, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipTracking(t *testing.T) {
	s := testStore(t, 2)
	m := []float64{0, 0}
	mustRecord(t, s, 0, m, map[ClientID][]float64{1: {1, 1}})
	mustRecord(t, s, 1, m, map[ClientID][]float64{1: {1, 1}, 2: {1, 1}})
	mustRecord(t, s, 2, m, map[ClientID][]float64{2: {1, 1}})

	if f, err := s.JoinRound(1); err != nil || f != 0 {
		t.Errorf("client 1 join = %v, %v; want 0", f, err)
	}
	if f, err := s.JoinRound(2); err != nil || f != 1 {
		t.Errorf("client 2 join = %v, %v; want 1", f, err)
	}
	s.NoteLeave(1, 2)
	mem, err := s.MembershipOf(1)
	if err != nil {
		t.Fatal(err)
	}
	if mem.LeaveRound != 2 {
		t.Errorf("leave = %d, want 2", mem.LeaveRound)
	}
	// NoteLeave is idempotent-ish: a second leave keeps the first.
	s.NoteLeave(1, 5)
	mem, _ = s.MembershipOf(1)
	if mem.LeaveRound != 2 {
		t.Errorf("second NoteLeave changed round to %d", mem.LeaveRound)
	}
	ids := s.Clients()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("Clients = %v", ids)
	}
}

func TestRejoinResetsMembership(t *testing.T) {
	s := testStore(t, 2)
	m := []float64{0, 0}
	mustRecord(t, s, 0, m, map[ClientID][]float64{1: {1, 1}})
	s.NoteLeave(1, 1)
	mustRecord(t, s, 1, m, nil)
	mustRecord(t, s, 2, m, map[ClientID][]float64{1: {1, 1}})
	f, err := s.JoinRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 {
		t.Errorf("rejoin should reset JoinRound to 2, got %d", f)
	}
}

func TestParticipantsSorted(t *testing.T) {
	s := testStore(t, 2)
	mustRecord(t, s, 0, []float64{0, 0}, map[ClientID][]float64{
		9: {1, 1}, 3: {1, 1}, 7: {1, 1},
	})
	p, err := s.Participants(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[0] != 3 || p[1] != 7 || p[2] != 9 {
		t.Errorf("Participants = %v", p)
	}
}

func TestDefaultWeightIsOne(t *testing.T) {
	s := testStore(t, 2)
	mustRecord(t, s, 0, []float64{0, 0}, map[ClientID][]float64{1: {1, 1}})
	if w, err := s.Weight(0, 1); err != nil || w != 1 {
		t.Errorf("Weight = %v, %v; want 1", w, err)
	}
}

func TestStorageAccounting(t *testing.T) {
	dim := 100
	s := testStore(t, dim)
	r := rng.New(2)
	model := make([]float64, dim)
	for round := 0; round < 5; round++ {
		grads := map[ClientID][]float64{}
		for c := ClientID(0); c < 4; c++ {
			grads[c] = grad(r, dim)
		}
		mustRecord(t, s, round, model, grads)
	}
	rep := s.Storage()
	wantDir := 5 * 4 * ((dim + 3) / 4)
	if rep.DirectionBytes != wantDir {
		t.Errorf("DirectionBytes = %d, want %d", rep.DirectionBytes, wantDir)
	}
	wantFull := 5 * 4 * dim * 8
	if rep.FullGradientBytes != wantFull {
		t.Errorf("FullGradientBytes = %d, want %d", rep.FullGradientBytes, wantFull)
	}
	if rep.ModelBytes != 5*dim*8 {
		t.Errorf("ModelBytes = %d, want %d", rep.ModelBytes, 5*dim*8)
	}
	// The paper's headline: direction storage saves ~95%+ vs full
	// float64 gradients.
	if rep.GradientSavings < 0.95 {
		t.Errorf("GradientSavings = %v, want >= 0.95", rep.GradientSavings)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dim := 37
	s := testStore(t, dim)
	r := rng.New(3)
	for round := 0; round < 4; round++ {
		model := grad(r, dim)
		grads := map[ClientID][]float64{}
		weights := map[ClientID]float64{}
		for c := ClientID(0); c < 3; c++ {
			if round == 0 && c == 2 {
				continue // client 2 joins at round 1
			}
			grads[c] = grad(r, dim)
			weights[c] = float64(10 + c)
		}
		if err := s.RecordRound(round, model, grads, weights); err != nil {
			t.Fatal(err)
		}
	}
	s.NoteLeave(0, 3)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != s.Dim() || got.Delta() != s.Delta() || got.Rounds() != s.Rounds() {
		t.Fatalf("header mismatch: dim %d/%d delta %v/%v rounds %d/%d",
			got.Dim(), s.Dim(), got.Delta(), s.Delta(), got.Rounds(), s.Rounds())
	}
	for round := 0; round < s.Rounds(); round++ {
		wantModel, _ := s.Model(round)
		gotModel, err := got.Model(round)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantModel {
			if wantModel[i] != gotModel[i] {
				t.Fatalf("round %d model[%d] mismatch", round, i)
			}
		}
		wantP, _ := s.Participants(round)
		gotP, _ := got.Participants(round)
		if len(wantP) != len(gotP) {
			t.Fatalf("round %d participants %v vs %v", round, gotP, wantP)
		}
		for i := range wantP {
			if wantP[i] != gotP[i] {
				t.Fatalf("round %d participants %v vs %v", round, gotP, wantP)
			}
			wd, _ := s.Direction(round, wantP[i])
			gd, err := got.Direction(round, wantP[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < wd.Len(); j++ {
				if wd.At(j) != gd.At(j) {
					t.Fatalf("round %d client %d dir[%d] mismatch", round, wantP[i], j)
				}
			}
			ww, _ := s.Weight(round, wantP[i])
			gw, _ := got.Weight(round, wantP[i])
			if ww != gw {
				t.Fatalf("round %d client %d weight %v vs %v", round, wantP[i], gw, ww)
			}
		}
	}
	wantMem, _ := s.MembershipOf(0)
	gotMem, err := got.MembershipOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if wantMem != gotMem {
		t.Fatalf("membership %+v vs %+v", gotMem, wantMem)
	}
	// Storage counters recomputed identically.
	if s.Storage() != got.Storage() {
		t.Fatalf("storage %+v vs %+v", got.Storage(), s.Storage())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":    {},
		"badMagic": []byte("NOTMAGIC and then some"),
		"truncated": func() []byte {
			s := testStore(t, 4)
			_ = s.RecordRound(0, []float64{1, 2, 3, 4},
				map[ClientID][]float64{1: {1, -1, 0, 1}}, nil)
			var buf bytes.Buffer
			_ = s.Save(&buf)
			return buf.Bytes()[:buf.Len()-3]
		}(),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}

func TestSaveLoadNaNDelta(t *testing.T) {
	// Delta survives exactly, including signed zero edge cases.
	s, err := NewStore(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta() != 0 || math.Signbit(got.Delta()) {
		t.Errorf("delta = %v", got.Delta())
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	s := testStore(t, 8)
	r := rng.New(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 50; round++ {
			grads := map[ClientID][]float64{1: grad(r, 8)}
			if err := s.RecordRound(round, make([]float64, 8), grads, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		n := s.Rounds()
		if n > 0 {
			if _, err := s.Model(n - 1); err != nil {
				t.Fatal(err)
			}
		}
		_ = s.Storage()
	}
	<-done
}
