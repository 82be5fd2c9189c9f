package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/unlearn/strategy"
)

// hashFloats is the SHA-256 of v as little-endian IEEE-754 bits.
func hashFloats(v []float64) string {
	h := sha256.New()
	writeFloats(h, v)
	return hex.EncodeToString(h.Sum(nil))
}

// writeFloats feeds v to h as little-endian IEEE-754 bits.
func writeFloats(h hash.Hash, v []float64) {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	h.Write(buf)
}

// cnnRoundBits runs the fleet_cnn vehicle step — the TrafficCNN on a
// SynthTraffic shard at seed 1, full batch — for 20 rounds at shards
// 68 and 272, moving the model by 0.1·g after each round, and hashes
// the gradients in round order. The Deployments train MLPs, so this is
// what pins the conv, ReLU and max-pool kernels.
func cnnRoundBits(t *testing.T, got map[string]string) {
	t.Helper()
	for _, shard := range []int{68, 272} {
		data := dataset.SynthTraffic(dataset.DefaultTraffic(shard, 1))
		net := nn.NewTrafficCNN(data.Dims.H, data.Classes)
		net.Init(rng.New(1))
		params := net.ParamVector()
		c := &fl.Client{ID: 1, Data: data}
		h := sha256.New()
		for round := 0; round < 20; round++ {
			g, err := c.ComputeGradient(net, params, 9, round)
			if err != nil {
				t.Fatal(err)
			}
			writeFloats(h, g)
			for i := range params {
				params[i] -= 0.1 * g[i]
			}
		}
		got[fmt.Sprintf("TrafficCNN/shard%d/compute_gradient", shard)] = hex.EncodeToString(h.Sum(nil))
	}
}

// goldenBits trains the CI-scale Digits and Traffic deployments under
// the backdoor attack at seed 47 (the table1/verify deployment), then
// unlearns the attackers with the paper scheme. Each key names one
// value whose bits it hashes: the trained params, the direction
// store's Save bytes and the unlearned params; cnnRoundBits adds the
// CNN training rounds.
func goldenBits(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, kind := range []DatasetKind{Digits, Traffic} {
		dep, err := NewDeployment(kind, BackdoorAttack, CIScale(), 47)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Train(context.Background()); err != nil {
			t.Fatal(err)
		}
		name := kind.String()
		got[name+"/trained_params"] = hashFloats(dep.Sim.Params())

		h := sha256.New()
		if err := dep.Store.Save(h); err != nil {
			t.Fatal(err)
		}
		got[name+"/store_save"] = hex.EncodeToString(h.Sum(nil))

		res, err := strategy.Unlearn(context.Background(), "paper", dep.request())
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/paper_params"] = hashFloats(res.Params)
	}
	cnnRoundBits(t, got)
	return got
}

// TestGoldenBits pins the model, history and recovery bits of the
// whole pipeline against testdata/golden.json: a change to any kernel,
// the aggregation order, the codec or the recovery that moves one bit
// fails here. A deliberate change replaces the file with the hashes
// this test prints and names the reason in CHANGES.md. The bits hold
// at any GOMAXPROCS (CI runs it at -cpu 1,2).
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Off amd64 the compiler may fuse x*y+z (ROADMAP item 9) and
		// math.Exp is pure Go rather than assembly: both move bits.
		t.Skipf("golden hashes are amd64 bits; GOARCH=%s differs in FMA fusion and math.Exp", runtime.GOARCH)
	}
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
	mismatch := false
	for k, v := range got {
		if want[k] != v {
			mismatch = true
			t.Errorf("%s: got %s, want %s", k, v, want[k])
		}
	}
	if mismatch {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("hashes of this build:\n%s", out)
	}
}
