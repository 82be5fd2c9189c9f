package iov

import (
	"testing"

	"fuiov/internal/fl"
	"fuiov/internal/history"
)

func validConfig() Config {
	return Config{
		SegmentLength: 5000,
		RSU:           RSU{Pos: 2500, Radius: 1000},
		NumVehicles:   20,
		MinSpeed:      10,
		MaxSpeed:      35,
		RoundDuration: 30,
		Seed:          1,
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := map[string]func(*Config){
		"segment":  func(c *Config) { c.SegmentLength = 0 },
		"vehicles": func(c *Config) { c.NumVehicles = 0 },
		"radius":   func(c *Config) { c.RSU.Radius = 0 },
		"speeds":   func(c *Config) { c.MinSpeed, c.MaxSpeed = 10, 5 },
		"duration": func(c *Config) { c.RoundDuration = 0 },
		"dropout":  func(c *Config) { c.DropoutProb = 1.5 },
	}
	for name, mutate := range mutations {
		c := validConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := validConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRSUCoverageWraps(t *testing.T) {
	r := RSU{Pos: 100, Radius: 200}
	seg := 5000.0
	if !(r.Distance(100, seg) <= r.Radius) {
		t.Error("RSU must cover its own position")
	}
	if !(r.Distance(250, seg) <= r.Radius) {
		t.Error("250 is within 200m of 100")
	}
	if r.Distance(400, seg) <= r.Radius {
		t.Error("400 is 300m away")
	}
	// Wrap-around: position 4950 is 150m behind position 100 on a
	// 5000m ring.
	if !(r.Distance(4950, seg) <= r.Radius) {
		t.Error("wrap-around coverage failed")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(validConfig(), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(validConfig(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for id := history.ClientID(0); id < 20; id++ {
		for round := 0; round < 50; round++ {
			if a.Participates(id, round) != b.Participates(id, round) {
				t.Fatalf("trace differs at vehicle %d round %d", id, round)
			}
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(validConfig(), 0); err == nil {
		t.Error("zero rounds should error")
	}
	bad := validConfig()
	bad.NumVehicles = 0
	if _, err := Simulate(bad, 10); err == nil {
		t.Error("invalid config should error")
	}
}

func TestConnectivityFollowsMovement(t *testing.T) {
	// A single fast vehicle on a long ring must both enter and leave
	// coverage across the horizon.
	cfg := validConfig()
	cfg.NumVehicles = 10
	tr, err := Simulate(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	rate := tr.ParticipationRate()
	if rate <= 0 || rate >= 1 {
		t.Fatalf("participation rate = %v, want in (0,1)", rate)
	}
	// With radius 1000 on a 5000m ring, expected coverage ~ 2*1000/5000.
	if rate < 0.2 || rate > 0.6 {
		t.Errorf("participation rate = %v, want near 0.4", rate)
	}
	// At least one vehicle must have a join after round 0 (dynamic
	// membership).
	lateJoin := false
	for _, v := range tr.Vehicles() {
		if f := tr.firstJoin(v.ID); f > 0 {
			lateJoin = true
			break
		}
	}
	if !lateJoin {
		t.Error("no vehicle joined late; scenario is static")
	}
}

func TestTraceImplementsSchedule(t *testing.T) {
	tr, err := Simulate(validConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var s fl.Schedule = tr
	// Out-of-range queries are false, never panic.
	if s.Participates(999, 5) {
		t.Error("unknown vehicle should not participate")
	}
	if s.Participates(0, -1) || s.Participates(0, 10) {
		t.Error("out-of-range round should not participate")
	}
}

func TestFirstJoinLastSeenConsistency(t *testing.T) {
	tr, err := Simulate(validConfig(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Vehicles() {
		first, last := tr.firstJoin(v.ID), tr.LastSeen(v.ID)
		if (first < 0) != (last < 0) {
			t.Fatalf("vehicle %d: first=%d last=%d", v.ID, first, last)
		}
		if first >= 0 {
			if last < first {
				t.Fatalf("vehicle %d: last %d < first %d", v.ID, last, first)
			}
			if !tr.Participates(v.ID, first) || !tr.Participates(v.ID, last) {
				t.Fatalf("vehicle %d: endpoints not connected", v.ID)
			}
		}
	}
}

func TestDropouts(t *testing.T) {
	cfg := validConfig()
	tr, err := Simulate(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tr.Dropouts(60) {
		if last := tr.LastSeen(id); last >= 60 {
			t.Errorf("vehicle %d reported as dropout but seen at %d", id, last)
		}
		if tr.firstJoin(id) < 0 {
			t.Errorf("vehicle %d never connected; not a dropout", id)
		}
	}
}

func TestDropoutProbabilityReducesParticipation(t *testing.T) {
	base := validConfig()
	noDrop, err := Simulate(base, 100)
	if err != nil {
		t.Fatal(err)
	}
	lossy := base
	lossy.DropoutProb = 0.5
	withDrop, err := Simulate(lossy, 100)
	if err != nil {
		t.Fatal(err)
	}
	if withDrop.ParticipationRate() >= noDrop.ParticipationRate() {
		t.Errorf("dropout should reduce participation: %v vs %v",
			withDrop.ParticipationRate(), noDrop.ParticipationRate())
	}
}

func TestOpenRoadProducesPermanentDropouts(t *testing.T) {
	cfg := validConfig()
	cfg.OpenRoad = true
	cfg.MinSpeed, cfg.MaxSpeed = 5, 15
	tr, err := Simulate(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	dropouts := tr.Dropouts(150)
	if len(dropouts) == 0 {
		t.Fatal("open road produced no permanent dropouts over 200 rounds")
	}
	// A dropout on an open road never reappears.
	for _, id := range dropouts {
		last := tr.LastSeen(id)
		for round := last + 1; round < 200; round++ {
			if tr.Participates(id, round) {
				t.Fatalf("vehicle %d reappeared at round %d on an open road", id, round)
			}
		}
	}
	// Participation declines over time as the fleet drives off.
	firstHalf, secondHalf := 0, 0
	for _, v := range tr.Vehicles() {
		for round := 0; round < 100; round++ {
			if tr.Participates(v.ID, round) {
				firstHalf++
			}
		}
		for round := 100; round < 200; round++ {
			if tr.Participates(v.ID, round) {
				secondHalf++
			}
		}
	}
	if secondHalf >= firstHalf {
		t.Errorf("open-road participation should decline: %d -> %d", firstHalf, secondHalf)
	}
}

// Vehicles returns the initial vehicle states.
func (tr *Trace) Vehicles() []Vehicle {
	return append([]Vehicle(nil), tr.vehicles...)
}

// firstJoin returns the first connected round of a vehicle, or -1 if
// it never connects.
func (tr *Trace) firstJoin(id history.ClientID) int {
	for t, on := range tr.part[id] {
		if on {
			return t
		}
	}
	return -1
}
