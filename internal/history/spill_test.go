package history

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
)

// recordSchedule drives an identical round sequence into every given
// store: per-round random models and gradients, clients joining and
// sitting out per the rng schedule, and occasional NoteLeave calls.
// All stores see exactly the same bytes.
func recordSchedule(t testing.TB, seed uint64, dim, rounds, clients int, stores ...*Store) {
	t.Helper()
	r := rng.New(seed)
	model := make([]float64, dim)
	for round := 0; round < rounds; round++ {
		for i := range model {
			model[i] = r.Normal()
		}
		grads := map[ClientID][]float64{}
		weights := map[ClientID]float64{}
		for c := 0; c < clients; c++ {
			// Stagger joins so backtrack targets differ per client, and
			// let clients sit out rounds at random.
			if round < c || r.Bernoulli(0.25) {
				continue
			}
			g := make([]float64, dim)
			for i := range g {
				g[i] = r.NormalScaled(0, 0.05)
			}
			grads[ClientID(c)] = g
			weights[ClientID(c)] = float64(1 + r.IntN(50))
		}
		for _, s := range stores {
			if err := s.RecordRound(round, model, grads, weights); err != nil {
				t.Fatal(err)
			}
		}
		if r.Bernoulli(0.1) {
			leaver := ClientID(r.IntN(clients))
			for _, s := range stores {
				s.NoteLeave(leaver, round)
			}
		}
	}
}

// equalStores compares every observable of two stores bit-for-bit:
// models (via ModelInto, exercising the spill read path), directions,
// weights, participants and memberships.
func equalStores(t *testing.T, want, got *Store) {
	t.Helper()
	if want.Rounds() != got.Rounds() {
		t.Fatalf("rounds %d vs %d", want.Rounds(), got.Rounds())
	}
	dim := want.Dim()
	wm := make([]float64, dim)
	gm := make([]float64, dim)
	for round := 0; round < want.Rounds(); round++ {
		if err := want.ModelInto(round, wm); err != nil {
			t.Fatal(err)
		}
		if err := got.ModelInto(round, gm); err != nil {
			t.Fatal(err)
		}
		for i := range wm {
			if math.Float64bits(wm[i]) != math.Float64bits(gm[i]) {
				t.Fatalf("round %d model[%d]: %v vs %v", round, i, wm[i], gm[i])
			}
		}
		wp, err := want.Participants(round)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := got.Participants(round)
		if err != nil {
			t.Fatal(err)
		}
		if len(wp) != len(gp) {
			t.Fatalf("round %d participants %v vs %v", round, wp, gp)
		}
		for i, id := range wp {
			if gp[i] != id {
				t.Fatalf("round %d participants %v vs %v", round, wp, gp)
			}
			wd, _ := want.Direction(round, id)
			gd, err := got.Direction(round, id)
			if err != nil || wd.Len() != gd.Len() {
				t.Fatalf("round %d client %d direction mismatch: %v", round, id, err)
			}
			for j := 0; j < wd.Len(); j++ {
				if wd.At(j) != gd.At(j) {
					t.Fatalf("round %d client %d direction[%d]: %v vs %v", round, id, j, wd.At(j), gd.At(j))
				}
			}
			ww, _ := want.Weight(round, id)
			gw, _ := got.Weight(round, id)
			if ww != gw {
				t.Fatalf("round %d client %d weight %v vs %v", round, id, ww, gw)
			}
		}
	}
	for _, id := range want.Clients() {
		wmem, _ := want.MembershipOf(id)
		gmem, err := got.MembershipOf(id)
		if err != nil || wmem != gmem {
			t.Fatalf("client %d membership %+v vs %+v (%v)", id, wmem, gmem, err)
		}
	}
}

// TestSpillRoundTrip is the smoke run wired into scripts/check.sh: a
// spilling store must stay bit-identical to an all-RAM twin on every
// read path, report the bounded-memory split in Storage(), and
// survive a Save/Load round trip.
func TestSpillRoundTrip(t *testing.T) {
	const dim, rounds, clients, window = 33, 12, 4, 2
	ram, err := NewStore(dim, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStore(dim, 1e-3, WithSpill(t.TempDir(), window))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	recordSchedule(t, 42, dim, rounds, clients, ram, sp)
	equalStores(t, ram, sp)

	rep := sp.Storage()
	if want := window * dim * 8; rep.ModelBytesResident != want {
		t.Errorf("resident bytes = %d, want %d (window %d)", rep.ModelBytesResident, want, window)
	}
	if want := (rounds - window) * dim * 8; rep.ModelBytesSpilled != want {
		t.Errorf("spilled bytes = %d, want %d", rep.ModelBytesSpilled, want)
	}
	if rep.ModelBytesResident+rep.ModelBytesSpilled != rep.ModelBytes {
		t.Errorf("resident %d + spilled %d != total %d",
			rep.ModelBytesResident, rep.ModelBytesSpilled, rep.ModelBytes)
	}
	ramRep := ram.Storage()
	if ramRep.ModelBytesSpilled != 0 || ramRep.ModelBytesResident != ramRep.ModelBytes {
		t.Errorf("all-RAM store reports spill: %+v", ramRep)
	}

	// Snapshots must not depend on where a round currently resides.
	var ramBuf, spBuf bytes.Buffer
	if err := ram.Save(&ramBuf); err != nil {
		t.Fatal(err)
	}
	if err := sp.Save(&spBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ramBuf.Bytes(), spBuf.Bytes()) {
		t.Fatal("spilled store serialises differently from all-RAM store")
	}
	reloaded, err := Load(bytes.NewReader(spBuf.Bytes()), WithSpill(t.TempDir(), window))
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	equalStores(t, ram, reloaded)
	if got := reloaded.Storage().ModelBytesSpilled; got != (rounds-window)*dim*8 {
		t.Errorf("reloaded store spilled %d bytes, want %d", got, (rounds-window)*dim*8)
	}
}

// TestSpillTelemetry checks the spill counters: rounds/bytes moved to
// disk, and cache hits vs misses on the spilled read path.
func TestSpillTelemetry(t *testing.T) {
	const dim, rounds, window = 16, 8, 3
	sp, err := NewStore(dim, 1e-3, WithSpill(t.TempDir(), window))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	reg := telemetry.New()
	sp.SetTelemetry(reg)
	recordSchedule(t, 7, dim, rounds, 2, sp)

	spilled := rounds - window
	if got := reg.Counter(telemetry.HistorySpilledRounds).Value(); got != int64(spilled) {
		t.Errorf("%s = %d, want %d", telemetry.HistorySpilledRounds, got, spilled)
	}
	if got := reg.Counter(telemetry.HistorySpilledBytes).Value(); got != int64(spilled*dim*8) {
		t.Errorf("%s = %d, want %d", telemetry.HistorySpilledBytes, got, spilled*dim*8)
	}

	dst := make([]float64, dim)
	// First read of a spilled round misses, repeats hit the cache.
	for i := 0; i < 3; i++ {
		if err := sp.ModelInto(0, dst); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(telemetry.HistorySpillMisses).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.HistorySpillMisses, got)
	}
	if got := reg.Counter(telemetry.HistorySpillHits).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", telemetry.HistorySpillHits, got)
	}
	// spillCacheRounds other spilled rounds evict round 0 from the
	// cache: each of them misses once, and so does round 0 after them.
	for round := 1; round <= spillCacheRounds; round++ {
		if err := sp.ModelInto(round, dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.ModelInto(0, dst); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter(telemetry.HistorySpillMisses).Value(), int64(spillCacheRounds+2); got != want {
		t.Errorf("%s after eviction = %d, want %d", telemetry.HistorySpillMisses, got, want)
	}
	// Reads inside the RAM window never touch the spill counters.
	before := reg.Counter(telemetry.HistorySpillMisses).Value()
	if err := sp.ModelInto(rounds-1, dst); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.HistorySpillMisses).Value(); got != before {
		t.Error("resident read hit the spill path")
	}
}

// TestSpillOptionValidation pins the constructor contract.
func TestSpillOptionValidation(t *testing.T) {
	if _, err := NewStore(4, 0, WithSpill("", 0)); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := NewStore(4, 0, WithSpill("", -3)); err == nil {
		t.Error("negative window accepted")
	}
	s, err := NewStore(4, 0, WithSpill(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	// Close on a RAM-only store is a no-op.
	ram, err := NewStore(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ram.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillProperty: across random join/leave schedules and window
// sizes, a spilled-then-reloaded store is observably byte-identical to
// an all-RAM store. Up to 9 rounds spill, more than the read cache
// holds.
func TestSpillProperty(t *testing.T) {
	f := func(seed uint64, dimRaw, roundsRaw, clientsRaw, windowRaw uint8) bool {
		dim := 1 + int(dimRaw)%40
		rounds := 1 + int(roundsRaw)%10
		clients := 1 + int(clientsRaw)%5
		window := 1 + int(windowRaw)%6
		ram, err := NewStore(dim, 1e-3)
		if err != nil {
			return false
		}
		sp, err := NewStore(dim, 1e-3, WithSpill(t.TempDir(), window))
		if err != nil {
			return false
		}
		defer sp.Close()
		recordSchedule(t, seed, dim, rounds, clients, ram, sp)
		equalStores(t, ram, sp)

		var buf bytes.Buffer
		if err := sp.Save(&buf); err != nil {
			return false
		}
		reloaded, err := Load(&buf, WithSpill(t.TempDir(), window))
		if err != nil {
			return false
		}
		defer reloaded.Close()
		equalStores(t, ram, reloaded)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
