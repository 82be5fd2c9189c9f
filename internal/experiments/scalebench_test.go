package experiments

import (
	"context"
	"testing"
)

// scaleChecksum is the smoke sweep's checksum on amd64, recorded so
// that a change to the sharded fold's bits fails here and not only
// between two runs of the same build.
const scaleChecksum = -0.0570793700886875

// TestScaleBenchDeterministic runs the smoke sweep twice: the
// checksum (the resolved aggregate) must be bit-identical and equal to
// scaleChecksum, and the
// memory columns must match the flat-memory contract.
func TestScaleBenchDeterministic(t *testing.T) {
	cfg := DefaultScaleConfig()
	cfg.Registered = []int{2000}
	cfg.Rounds = 2

	a, err := ScaleBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("rows = %d/%d, want 1/1", len(a), len(b))
	}
	if a[0].Checksum != b[0].Checksum {
		t.Errorf("checksum not reproducible: %v vs %v", a[0].Checksum, b[0].Checksum)
	}
	if a[0].Checksum != scaleChecksum {
		t.Errorf("checksum = %v, want the recorded %v (the fold's bits moved)", a[0].Checksum, scaleChecksum)
	}
	if want := int64(8 * cfg.Dim * cfg.Shards); a[0].AggBytes != want {
		t.Errorf("AggBytes = %d, want %d", a[0].AggBytes, want)
	}
	if a[0].Cohort != 2000 {
		t.Errorf("Cohort = %d, want full participation 2000", a[0].Cohort)
	}
	if a[0].BarrierBytesProjected != int64(8*cfg.Dim*2000) {
		t.Errorf("BarrierBytesProjected = %d", a[0].BarrierBytesProjected)
	}
}

// TestScaleBenchSampledCohort exercises the Sampler-driven partial
// cohort: K of N fold per round, and the accumulator footprint does
// not depend on either.
func TestScaleBenchSampledCohort(t *testing.T) {
	cfg := ScaleConfig{
		Registered: []int{5000},
		Cohort:     500,
		Dim:        16,
		Shards:     4,
		Rounds:     2,
		Seed:       7,
	}
	rows, err := ScaleBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Cohort != 500 {
		t.Errorf("Cohort = %d, want 500", r.Cohort)
	}
	if r.AggBytes != int64(8*16*4) {
		t.Errorf("AggBytes = %d, want %d", r.AggBytes, 8*16*4)
	}
	if r.SamplerBytes != 4*5000 {
		t.Errorf("SamplerBytes = %d, want %d", r.SamplerBytes, 4*5000)
	}
}
