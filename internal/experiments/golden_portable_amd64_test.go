package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fuiov/internal/cpuid"
)

// TestGoldenBitsPortable pins the portable kernels to the same bits as
// the AVX2 ones: with cpuid.AVX2 switched off, every sign, tensor and
// nn kernel runs its Go loop, and the pipeline must still reproduce
// testdata/golden.json hash for hash. cpuid.AVX2 is a constant off
// amd64, hence the file's build constraint.
func TestGoldenBitsPortable(t *testing.T) {
	saved := cpuid.AVX2
	cpuid.AVX2 = false
	t.Cleanup(func() { cpuid.AVX2 = saved })
	raw, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenBits(t)
	if len(got) != len(want) {
		t.Errorf("computed %d hashes, golden.json has %d", len(got), len(want))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: portable kernels give %s, want %s", k, v, want[k])
		}
	}
}
