package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fuiov/internal/agent"
	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/server"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

const (
	loopSeed = 11
	loopLR   = 0.05
)

// loopSchedule sits exactly one of four clients out each round, so
// rounds have partial, rotating participation like an IoV trace.
var loopSchedule = fl.FuncSchedule(func(id history.ClientID, t int) bool {
	return (int(id)+t)%4 != 0
})

// loopFixture builds one copy of the shared federation: n clients over
// IID digit shards, an MLP, a history store, all derived from loopSeed
// so two fixtures are bit-identical twins.
func loopFixture(t *testing.T, n int, sched fl.Schedule, policy *fl.FaultPolicy) (*fl.Simulation, []*fl.Client, *history.Store) {
	t.Helper()
	data := dataset.SynthDigits(dataset.DefaultDigits(30*n, loopSeed))
	shards, err := dataset.PartitionIID(data, rng.New(loopSeed), n)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, n)
	for i, s := range shards {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: s}
	}
	model := nn.NewMLP(data.Dims.Size(), 8, data.Classes)
	model.Init(rng.New(loopSeed))
	store, err := history.NewStore(model.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fl.NewSimulation(model, clients, fl.Config{
		LearningRate: loopLR,
		Seed:         loopSeed,
		Schedule:     sched,
		Store:        store,
		FaultPolicy:  policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, clients, store
}

// startCoordinator mounts a coordinator on an httptest server.
func startCoordinator(t *testing.T, cfg server.Config) (*server.Coordinator, string) {
	t.Helper()
	coord, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(func() { ts.Close(); coord.Close() })
	return coord, ts.URL
}

// runAgents drives one agent per client against base until the
// coordinator reports done, failing the test on any agent error.
func runAgents(t *testing.T, base string, clients []*fl.Client, template *nn.Network, mutate func(i int, cfg *agent.Config)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, cl := range clients {
		cfg := agent.Config{
			BaseURL:      base,
			Client:       cl,
			Template:     template.Clone(),
			Seed:         loopSeed,
			Schedule:     loopSchedule,
			PollInterval: time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		a, err := agent.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
}

// TestLoopbackBitIdentity is the contract of the whole serving layer:
// a schedule served over real HTTP — agents fetching models, computing
// locally, uploading dense frames — must produce the same model, bit
// for bit, as the identical schedule run in-process, and unlearning
// through POST /v1/unlearn must match the in-process Unlearner exactly.
func TestLoopbackBitIdentity(t *testing.T) {
	const nClients, rounds = 4, 6

	// Reference: the deterministic in-process engine.
	ref, _, refStore := loopFixture(t, nClients, loopSchedule, nil)
	for r := 0; r < rounds; r++ {
		if err := ref.RunRoundContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Served twin: same seed, same schedule, rounds over HTTP.
	sim, clients, _ := loopFixture(t, nClients, loopSchedule, nil)
	_, base := startCoordinator(t, server.Config{
		Engine:    sim,
		MaxRounds: rounds,
	})
	runAgents(t, base, clients, sim.Template(), nil)

	if sim.Round() != rounds {
		t.Fatalf("served engine stopped at round %d, want %d", sim.Round(), rounds)
	}
	a, b := ref.Params(), sim.Params()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("HTTP-served model diverges from in-process at param %d: %v vs %v", i, a[i], b[i])
		}
	}

	// Unlearning: in-process reference over the reference store.
	const victim = history.ClientID(2)
	u, err := unlearn.New(refStore, unlearn.Config{LearningRate: loopLR})
	if err != nil {
		t.Fatal(err)
	}
	want, err := u.UnlearnContext(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}

	// Over the wire.
	body, _ := json.Marshal(map[string]any{"clients": []history.ClientID{victim}})
	resp, err := http.Post(base+"/v1/unlearn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unlearn status = %s", resp.Status)
	}
	var reply struct {
		Forgotten       []history.ClientID `json:"forgotten"`
		BacktrackRound  int                `json:"backtrack_round"`
		RecoveredRounds int                `json:"recovered_rounds"`
		Applied         bool               `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Applied || reply.BacktrackRound != want.BacktrackRound || reply.RecoveredRounds != want.RecoveredRounds {
		t.Fatalf("unlearn reply %+v, want backtrack %d recovered %d applied",
			reply, want.BacktrackRound, want.RecoveredRounds)
	}
	got := sim.Params()
	for i := range want.Params {
		if want.Params[i] != got[i] {
			t.Fatalf("HTTP unlearn diverges from in-process at param %d: %v vs %v", i, want.Params[i], got[i])
		}
	}
}

// TestSlowClientDeadline exercises the wall-clock degradation path:
// a straggler that always misses the collection window is adjudicated
// absent, rounds commit on quorum, and the straggler's late uploads
// are answered 408.
func TestSlowClientDeadline(t *testing.T) {
	const rounds = 4
	sim, clients, _ := loopFixture(t, 2, fl.AlwaysOn{}, &fl.FaultPolicy{Quorum: 0.5})
	reg := telemetry.New()
	_, base := startCoordinator(t, server.Config{
		Engine:      sim,
		RoundWindow: 150 * time.Millisecond,
		MaxRounds:   rounds,
		Telemetry:   reg,
	})
	runAgents(t, base, clients, sim.Template(), func(i int, cfg *agent.Config) {
		cfg.Schedule = fl.AlwaysOn{}
		if i == 1 {
			cfg.UploadDelay = 400 * time.Millisecond
		}
	})

	if sim.Round() != rounds {
		t.Fatalf("engine at round %d, want %d", sim.Round(), rounds)
	}
	if n := reg.Counter(telemetry.ServerRoundsExpired).Value(); n == 0 {
		t.Fatal("no round was resolved by window expiry")
	}
	if n := reg.Counter(telemetry.ServerLateUploads).Value(); n == 0 {
		t.Fatal("straggler's late uploads were not counted")
	}
}

// TestConcurrentUploads floods one barrier round with parallel raw
// uploads; under -race this doubles as the data-race check for the
// window state machine.
func TestConcurrentUploads(t *testing.T) {
	const nClients = 8
	sim, clients, _ := loopFixture(t, nClients, fl.AlwaysOn{}, nil)
	_, base := startCoordinator(t, server.Config{
		Engine:    sim,
		MaxRounds: 1,
	})

	params := sim.Params()
	var wg sync.WaitGroup
	statuses := make([]int, nClients)
	uploadErrs := make([]error, nClients)
	for i, cl := range clients {
		g, err := cl.ComputeGradient(sim.Template().Clone(), params, loopSeed, 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cl *fl.Client, g []float64) {
			defer wg.Done()
			var body bytes.Buffer
			if err := server.WriteUpload(&body, cl.ID, 0, cl.Weight(), server.EncodingDense, g, 0, 1); err != nil {
				uploadErrs[i] = err
				return
			}
			resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", &body)
			if err != nil {
				uploadErrs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i, cl, g)
	}
	wg.Wait()
	for i := range clients {
		if uploadErrs[i] != nil {
			t.Fatalf("upload %d: %v", i, uploadErrs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("upload %d answered %d, want 200", i, statuses[i])
		}
	}
	if sim.Round() != 1 {
		t.Fatalf("round did not commit: engine at %d", sim.Round())
	}
}

// TestProtocolErrorMapping drives each rejection path of POST
// /v1/round and checks the documented status code and error code.
func TestProtocolErrorMapping(t *testing.T) {
	sim, clients, _ := loopFixture(t, 4, loopSchedule, nil)
	_, base := startCoordinator(t, server.Config{
		Engine:    sim,
		MaxRounds: 3,
	})
	params := sim.Params()
	grad := func(cl *fl.Client, round int) []float64 {
		g, err := cl.ComputeGradient(sim.Template().Clone(), params, loopSeed, round)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	post := func(client history.ClientID, round int, g []float64) (int, string) {
		var body bytes.Buffer
		if err := server.WriteUpload(&body, client, round, 1, server.EncodingDense, g, 0, 1); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Code
	}

	g := grad(clients[1], 0)
	// Round 0 schedules clients 1,2,3 (loopSchedule sits 0 out).
	if code, s := post(99, 0, g); code != http.StatusNotFound || s != "unknown_client" {
		t.Fatalf("unknown client → %d %q", code, s)
	}
	if code, s := post(0, 0, g); code != http.StatusConflict || s != "not_scheduled" {
		t.Fatalf("unscheduled client → %d %q", code, s)
	}
	if code, s := post(1, 2, g); code != http.StatusConflict || s != "round_mismatch" {
		t.Fatalf("future round → %d %q", code, s)
	}
	// Bad frame: truncated body.
	resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", strings.NewReader("FUV1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame → %d", resp.StatusCode)
	}
	// Model for a round not reached.
	resp, err = http.Get(base + "/v1/model/7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("future model → %d", resp.StatusCode)
	}
	// Unlearn of a client the store never saw.
	body, _ := json.Marshal(map[string]any{"clients": []history.ClientID{99}})
	resp, err = http.Post(base+"/v1/unlearn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown unlearn target → %d", resp.StatusCode)
	}

	// Late upload: commit round 0 properly, then replay it.
	var wg sync.WaitGroup
	for _, id := range []history.ClientID{1, 2, 3} {
		wg.Add(1)
		go func(cl *fl.Client) {
			defer wg.Done()
			post(cl.ID, 0, grad(cl, 0))
		}(clients[id])
	}
	wg.Wait()
	if sim.Round() != 1 {
		t.Fatalf("round 0 did not commit: engine at %d", sim.Round())
	}
	if code, s := post(1, 0, g); code != http.StatusRequestTimeout || s != "deadline_exceeded" {
		t.Fatalf("late upload → %d %q", code, s)
	}
}

// TestStatusAndModel checks the read-only endpoints: status reflects
// the registry and round clock, and historical models round-trip
// through the wire codec.
func TestStatusAndModel(t *testing.T) {
	sim, _, _ := loopFixture(t, 4, loopSchedule, &fl.FaultPolicy{Quorum: 0.5})
	_, base := startCoordinator(t, server.Config{
		Engine:      sim,
		RoundWindow: time.Minute,
		MaxRounds:   5,
	})
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Round     int     `json:"round"`
		MaxRounds int     `json:"max_rounds"`
		Clients   int     `json:"clients"`
		Scheduled int     `json:"scheduled"`
		Quorum    float64 `json:"quorum"`
		Dim       int     `json:"dim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Round != 0 || st.MaxRounds != 5 || st.Clients != 4 || st.Scheduled != 3 ||
		st.Quorum != 0.5 || st.Dim != sim.Template().NumParams() {
		t.Fatalf("status = %+v", st)
	}

	resp, err = http.Get(base + "/v1/model/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model status = %s", resp.Status)
	}
	round, params, err := server.ReadModel(resp.Body, sim.Template().NumParams())
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 {
		t.Fatalf("model frame carries round %d", round)
	}
	want := sim.Params()
	for i := range want {
		if params[i] != want[i] {
			t.Fatalf("served model differs at %d", i)
		}
	}
}

// TestUnlearnRefusesUnknownFields posts bodies that name an algorithm
// or ask for a dry run. The coordinator runs only the paper's scheme
// and always installs its result, so each body is refused 400
// bad_request before any work: the status and every served model stay
// byte-identical, and a plain request still unlearns afterwards.
func TestUnlearnRefusesUnknownFields(t *testing.T) {
	sim, _, _ := loopFixture(t, 4, loopSchedule, nil)
	if err := sim.RunContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	_, base := startCoordinator(t, server.Config{Engine: sim, MaxRounds: 3})
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s → %s (%v)", path, resp.Status, err)
		}
		return b
	}
	paths := []string{"/v1/status", "/v1/model/0", "/v1/model/1", "/v1/model/2", "/v1/model/3"}
	snapshot := func() [][]byte {
		out := make([][]byte, len(paths))
		for i, p := range paths {
			out[i] = get(p)
		}
		return out
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/unlearn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Code
	}

	before := snapshot()
	for _, body := range []string{
		`{"clients":[1],"strategy":"paper"}`,
		`{"clients":[1],"strategy":"pga"}`,
		`{"clients":[1],"apply":false}`,
		`{"clients":[1],"async":true,"strategy":"paper"}`,
	} {
		if code, s := post(body); code != http.StatusBadRequest || s != "bad_request" {
			t.Errorf("%s → %d %q, want 400 bad_request", body, code, s)
		}
	}
	for i, b := range snapshot() {
		if !bytes.Equal(b, before[i]) {
			t.Errorf("refused requests changed GET %s", paths[i])
		}
	}
	if code, s := post(`{"clients":[1]}`); code != http.StatusOK {
		t.Fatalf("plain unlearn → %d %q", code, s)
	}
}

// TestCoordinatorClose verifies that Close resolves the open window
// and later requests answer 503.
func TestCoordinatorClose(t *testing.T) {
	sim, clients, _ := loopFixture(t, 4, loopSchedule, nil)
	coord, base := startCoordinator(t, server.Config{Engine: sim, MaxRounds: 3})

	// Park one upload in the barrier, then close underneath it.
	g, err := clients[1].ComputeGradient(sim.Template().Clone(), sim.Params(), loopSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := server.WriteUpload(&body, 1, 0, clients[1].Weight(), server.EncodingDense, g, 0, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", &body)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("blocked upload answered %d after Close, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked upload did not return after Close")
	}
	// Read-only endpoints keep serving the final state; uploads fail.
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after Close = %d, want 200 (read-only stays up)", resp.StatusCode)
	}
	var retry bytes.Buffer
	if err := server.WriteUpload(&retry, 1, 0, clients[1].Weight(), server.EncodingDense, g, 0, 1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/round", "application/x-fuiov-upload", &retry)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload after Close = %d, want 503", resp.StatusCode)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "closed" {
		t.Fatalf("upload after Close carries code %q (%v), want \"closed\"", e.Code, err)
	}
}

// signFrames builds the round-0 sign upload of every client — the
// frame an agent configured with the same threshold and scale sends.
func signFrames(t *testing.T, sim *fl.Simulation, clients []*fl.Client, delta, scale float64) [][]byte {
	t.Helper()
	params := sim.Params()
	frames := make([][]byte, len(clients))
	for i, cl := range clients {
		g, err := cl.ComputeGradient(sim.Template().Clone(), params, loopSeed, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := server.WriteUpload(&buf, cl.ID, 0, cl.Weight(), server.EncodingSign, g, delta, scale); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	return frames
}

// requireSignRoundMatchesDense is the sign path's bit-identity over
// HTTP: the model served and the history recorded after the frames went
// through POST /v1/round equal those of oracle, an untouched twin
// engine, once it is fed each frame's dense reading
// (ReadUpload(frame).Grad) in ascending client order.
func requireSignRoundMatchesDense(t *testing.T, served, oracle *fl.Simulation, servedStore, oracleStore *history.Store, frames [][]byte) {
	t.Helper()
	rs, err := oracle.NewRoundStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		up, err := server.ReadUpload(bytes.NewReader(frame), oracle.Template().NumParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Add(up.Client, up.Grad, up.Weight); err != nil {
			t.Fatal(err)
		}
	}
	if err := oracle.SubmitRoundStream(rs, len(frames)); err != nil {
		t.Fatal(err)
	}
	got, want := served.Params(), oracle.Params()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("served sign round deviates from the dense reading at param %d: %v vs %v", i, got[i], want[i])
		}
	}
	var gb, wb bytes.Buffer
	if err := servedStore.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if err := oracleStore.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("served sign round recorded a different history than the dense reading")
	}
}

// TestSignEncodedRound runs a full HTTP round with sign-compressed
// uploads: lossy by design, but the round must commit, the upload
// accounting must record the 2-bit payloads, and — the packed path's
// licence — the served model and recorded history must be bit-equal to
// an in-process engine fed ReadUpload(frame).Grad. Once through the
// barrier, with concurrent agents (the barrier does not care about
// arrival order), and once streaming over one shard, with the frames
// posted in ascending client order.
func TestSignEncodedRound(t *testing.T) {
	const n, delta, scale = 4, 1e-9, 0.01
	check := func(t *testing.T, sim *fl.Simulation, reg *telemetry.Registry) {
		t.Helper()
		if sim.Round() != 1 {
			t.Fatalf("sign round did not commit: engine at %d", sim.Round())
		}
		if got := reg.Counter(telemetry.ServerSignUploads).Value(); got != n {
			t.Fatalf("sign uploads counted = %d, want %d", got, n)
		}
		dim := sim.Template().NumParams()
		wantBytes := int64(n * (8 + (dim+3)/4))
		if got := reg.Counter(telemetry.ServerUploadBytes).Value(); got != wantBytes {
			t.Fatalf("upload bytes = %d, want %d (2 bits/element)", got, wantBytes)
		}
	}

	t.Run("barrier", func(t *testing.T) {
		sim, clients, store := loopFixture(t, n, fl.AlwaysOn{}, nil)
		oracle, _, oracleStore := loopFixture(t, n, fl.AlwaysOn{}, nil)
		frames := signFrames(t, sim, clients, delta, scale)
		reg := telemetry.New()
		_, base := startCoordinator(t, server.Config{
			Engine:    sim,
			MaxRounds: 1,
			Telemetry: reg,
		})
		runAgents(t, base, clients, sim.Template(), func(i int, cfg *agent.Config) {
			cfg.Schedule = fl.AlwaysOn{}
			cfg.Encoding = server.EncodingSign
			cfg.Delta = delta
			cfg.Scale = scale
		})
		check(t, sim, reg)
		requireSignRoundMatchesDense(t, sim, oracle, store, oracleStore, frames)
	})

	t.Run("streaming", func(t *testing.T) {
		sim, clients, store := streamFixture(t, n, 1, fl.AlwaysOn{})
		oracle, _, oracleStore := streamFixture(t, n, 1, fl.AlwaysOn{})
		frames := signFrames(t, sim, clients, delta, scale)
		reg := telemetry.New()
		_, base := startCoordinator(t, server.Config{
			Engine:    sim,
			MaxRounds: 1,
			Telemetry: reg,
		})
		postInOrder(t, base, frames)
		check(t, sim, reg)
		requireSignRoundMatchesDense(t, sim, oracle, store, oracleStore, frames)
	})
}

// postInOrder delivers upload frames strictly one after another: a
// handler folds its upload on arrival and then blocks on the round, so
// each post runs on its own goroutine and the next one waits until
// /v1/status counts the previous upload as folded.
func postInOrder(t *testing.T, base string, frames [][]byte) {
	t.Helper()
	folded := func() int {
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Folded int `json:"folded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Folded
	}
	var wg sync.WaitGroup
	for i, frame := range frames {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/round", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("upload → %d", resp.StatusCode)
			}
		}(frame)
		if want := i + 1; want < len(frames) {
			deadline := time.Now().Add(5 * time.Second)
			for folded() < want {
				if time.Now().After(deadline) {
					t.Fatalf("upload %d never folded", i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	wg.Wait()
}

// TestSignUploadStaysPacked pins the memory shape of the sign path
// under Streaming: serving N sign uploads through the coordinator's
// handler allocates less than N × 8·dim/4 bytes in total — the payload
// is a thirty-second of a dense vector and nothing dense is built
// beside it, so one expansion per upload creeping back in (8·dim bytes
// each) fails this by a factor of four.
func TestSignUploadStaysPacked(t *testing.T) {
	const dim, vehicles, rounds = 20001, 16, 4 // round 0 warms the engine's scratch up
	net := nn.NewMLP(dim-1, 1)
	net.Init(rng.New(loopSeed))
	clients := make([]*fl.Client, vehicles)
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i)}
	}
	store, err := history.NewStore(dim, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fl.NewSimulation(net, clients, fl.Config{
		LearningRate: loopLR, Seed: loopSeed, Store: store, Streaming: true, StreamShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := server.New(server.Config{Engine: sim, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	r := rng.New(loopSeed)
	grad := make([]float64, dim)
	frames := make([][][]byte, rounds)
	for n := range frames {
		frames[n] = make([][]byte, vehicles)
		for i := range clients {
			for j := range grad {
				grad[j] = r.Normal()
			}
			var buf bytes.Buffer
			if err := server.WriteUpload(&buf, history.ClientID(i), n, 1+float64(i%3), server.EncodingSign, grad, 0.5, 0.01); err != nil {
				t.Fatal(err)
			}
			frames[n][i] = buf.Bytes()
		}
	}
	serveRound := func(n int) {
		var wg sync.WaitGroup
		for _, frame := range frames[n] {
			wg.Add(1)
			go func(frame []byte) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				coord.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/round", bytes.NewReader(frame)))
				if rec.Code != http.StatusOK {
					t.Errorf("round %d upload → %d %s", n, rec.Code, rec.Body)
				}
			}(frame)
		}
		wg.Wait()
	}

	serveRound(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 1; n < rounds; n++ {
		serveRound(n)
	}
	runtime.ReadMemStats(&after)
	if sim.Round() != rounds || store.Rounds() != rounds {
		t.Fatalf("engine at round %d, store at %d, want %d", sim.Round(), store.Rounds(), rounds)
	}
	const uploads = vehicles * (rounds - 1)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(uploads*8*dim/4); got >= bound {
		t.Fatalf("serving %d sign uploads of dim %d allocated %d bytes (%d per upload), want under %d (%d per upload)",
			uploads, dim, got, got/uploads, bound, bound/uploads)
	} else {
		t.Logf("%d bytes per upload against a bound of %d; a dense vector is %d", got/uploads, bound/uploads, 8*dim)
	}
}

// streamFixture is loopFixture with the engine in streaming mode:
// uploads fold into shard accumulators on arrival instead of
// buffering in the collection window.
func streamFixture(t *testing.T, n, shards int, sched fl.Schedule) (*fl.Simulation, []*fl.Client, *history.Store) {
	t.Helper()
	data := dataset.SynthDigits(dataset.DefaultDigits(30*n, loopSeed))
	shardsData, err := dataset.PartitionIID(data, rng.New(loopSeed), n)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, n)
	for i, s := range shardsData {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: s}
	}
	model := nn.NewMLP(data.Dims.Size(), 8, data.Classes)
	model.Init(rng.New(loopSeed))
	store, err := history.NewStore(model.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fl.NewSimulation(model, clients, fl.Config{
		LearningRate: loopLR,
		Seed:         loopSeed,
		Schedule:     sched,
		Store:        store,
		Streaming:    true,
		StreamShards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, clients, store
}

// TestStreamingServedRound serves a streaming engine over HTTP: the
// coordinator folds each upload into the shard accumulators inside
// the collection window (nothing buffered), /v1/status reports the
// streaming state, and the committed model matches the in-process
// streaming loop bit for bit.
func TestStreamingServedRound(t *testing.T) {
	const nClients, rounds, shards = 4, 4, 2

	ref, _, refStore := streamFixture(t, nClients, shards, loopSchedule)
	for r := 0; r < rounds; r++ {
		if err := ref.RunRoundContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	sim, clients, store := streamFixture(t, nClients, shards, loopSchedule)
	_, base := startCoordinator(t, server.Config{
		Engine:    sim,
		MaxRounds: rounds,
	})

	// The open window must advertise streaming mode before any upload.
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Streaming bool `json:"streaming"`
		Shards    int  `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Streaming || st.Shards != shards {
		t.Fatalf("status streaming=%v shards=%d, want true/%d", st.Streaming, st.Shards, shards)
	}

	runAgents(t, base, clients, sim.Template(), nil)
	if sim.Round() != rounds {
		t.Fatalf("streaming engine stopped at round %d, want %d", sim.Round(), rounds)
	}
	// Concurrent agents give a nondeterministic arrival order, so the
	// served model is only tolerance-close to the ascending-ID
	// in-process fold (the determinism contract is per-shard arrival
	// order; see TestStreamingOrderedUploadsBits for the exact case).
	a, b := ref.Params(), sim.Params()
	for i := range a {
		if d := a[i] - b[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("HTTP-streamed model diverges from in-process at param %d: %v vs %v", i, a[i], b[i])
		}
	}
	if refStore.Rounds() != store.Rounds() {
		t.Fatalf("served store has %d rounds, in-process %d", store.Rounds(), refStore.Rounds())
	}
}

// TestStreamingOrderedUploadsBits pins the streaming determinism
// contract over HTTP: uploads delivered in ascending client order —
// enforced by watching the window's folded count between posts — fold
// exactly like the in-process streaming loop, so the committed model
// is bit-identical. The folded counter in /v1/status is also the
// observable evidence that uploads fold on arrival rather than
// buffering until the barrier.
func TestStreamingOrderedUploadsBits(t *testing.T) {
	const nClients, shards = 4, 2

	ref, _, _ := streamFixture(t, nClients, shards, fl.AlwaysOn{})
	if err := ref.RunRoundContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	sim, clients, _ := streamFixture(t, nClients, shards, fl.AlwaysOn{})
	_, base := startCoordinator(t, server.Config{Engine: sim, MaxRounds: 1})

	folded := func() int {
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Folded int `json:"folded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Folded
	}

	params := sim.Params()
	var wg sync.WaitGroup
	for i, cl := range clients {
		g, err := cl.ComputeGradient(sim.Template(), params, loopSeed, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := server.WriteUpload(&buf, cl.ID, 0, cl.Weight(), server.EncodingDense, g, 0, 0); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/round", "application/octet-stream", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(buf.Bytes())
		// The upload folds on arrival, before the handler blocks on the
		// barrier — wait for the fold so the next client's upload
		// arrives strictly after this one.
		want := i + 1
		if want < len(clients) {
			deadline := time.Now().Add(5 * time.Second)
			for folded() < want {
				if time.Now().After(deadline) {
					t.Fatalf("upload %d never folded", i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	wg.Wait()
	if sim.Round() != 1 {
		t.Fatalf("round did not commit: engine at %d", sim.Round())
	}
	a, b := ref.Params(), sim.Params()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ordered HTTP stream deviates from in-process at param %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestAsyncUnlearn exercises the queued unlearning path over the wire:
// POST /v1/unlearn with async=true answers 202 with a request ID,
// training rounds keep committing while the pass runs, and polling
// GET /v1/unlearn/{id} reaches "done" with the paper-scheme result
// installed — after which the erased vehicle is unknown to the
// rewritten history. It also pins the async-mode error mapping and the
// unlearn_queue block of GET /v1/status.
func TestAsyncUnlearn(t *testing.T) {
	// Client 2 participates only in early rounds, so its history is
	// frozen before the async request and the coalesced pass can chase
	// the live tip without the forgotten vehicle rejoining mid-pass.
	sched := fl.FuncSchedule(func(id history.ClientID, round int) bool {
		if id == 2 {
			return round < 4
		}
		return true
	})
	sim, clients, _ := loopFixture(t, 4, sched, nil)
	_, base := startCoordinator(t, server.Config{
		Engine:    sim,
		MaxRounds: 20,
	})
	dim := sim.Template().NumParams()
	commitRound := func(round int) {
		t.Helper()
		var wg sync.WaitGroup
		for _, cl := range clients {
			if !sched.Participates(cl.ID, round) {
				continue
			}
			wg.Add(1)
			go func(id history.ClientID) {
				defer wg.Done()
				g := make([]float64, dim)
				for i := range g {
					g[i] = float64(int(id)+round+i%7) * 1e-3
				}
				var body bytes.Buffer
				if err := server.WriteUpload(&body, id, round, 1, server.EncodingDense, g, 0, 1); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", &body)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}(cl.ID)
		}
		wg.Wait()
	}
	for r := 0; r < 6; r++ {
		commitRound(r)
	}
	if sim.Round() != 6 {
		t.Fatalf("seed rounds did not commit: engine at %d", sim.Round())
	}

	// Async submit answers 202 with a pollable request ID.
	body, _ := json.Marshal(map[string]any{"clients": []history.ClientID{2}, "async": true})
	resp, err := http.Post(base+"/v1/unlearn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		RequestID  string `json:"request_id"`
		Status     string `json:"status"`
		StatusPath string `json:"status_path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit → %d", resp.StatusCode)
	}
	if accepted.RequestID == "" || accepted.StatusPath != "/v1/unlearn/"+accepted.RequestID {
		t.Fatalf("202 body = %+v", accepted)
	}

	// Rounds keep committing while the pass runs.
	for r := 6; r < 9; r++ {
		commitRound(r)
	}
	if sim.Round() != 9 {
		t.Fatalf("rounds stalled during recovery: engine at %d", sim.Round())
	}

	// Poll to completion.
	var status struct {
		RequestID       string             `json:"request_id"`
		Status          string             `json:"status"`
		Clients         []history.ClientID `json:"clients"`
		Forgotten       []history.ClientID `json:"forgotten"`
		BacktrackRound  *int               `json:"backtrack_round"`
		RecoveredRounds int                `json:"recovered_rounds"`
		Applied         bool               `json:"applied"`
		Error           string             `json:"error"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + accepted.StatusPath)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll → %d", resp.StatusCode)
		}
		status = struct {
			RequestID       string             `json:"request_id"`
			Status          string             `json:"status"`
			Clients         []history.ClientID `json:"clients"`
			Forgotten       []history.ClientID `json:"forgotten"`
			BacktrackRound  *int               `json:"backtrack_round"`
			RecoveredRounds int                `json:"recovered_rounds"`
			Applied         bool               `json:"applied"`
			Error           string             `json:"error"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if status.Status == "done" || status.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request never resolved: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status.Status != "done" {
		t.Fatalf("request failed: %+v", status)
	}
	if status.RequestID != accepted.RequestID ||
		len(status.Clients) != 1 || status.Clients[0] != 2 ||
		len(status.Forgotten) != 1 || status.Forgotten[0] != 2 {
		t.Fatalf("status = %+v", status)
	}
	if status.BacktrackRound == nil || *status.BacktrackRound != 0 {
		t.Fatalf("backtrack round = %v, want 0 (client 2 joined at round 0)", status.BacktrackRound)
	}
	if status.RecoveredRounds < 6 || !status.Applied {
		t.Fatalf("status = %+v", status)
	}

	// The rewritten store no longer knows client 2: a synchronous
	// re-unlearn maps to 404 unknown_client.
	body, _ = json.Marshal(map[string]any{"clients": []history.ClientID{2}})
	resp, err = http.Post(base+"/v1/unlearn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-unlearn of erased vehicle → %d", resp.StatusCode)
	}

	// Training resumes on the recovered model and rewritten history.
	commitRound(9)
	if sim.Round() != 10 {
		t.Fatalf("round after commit did not advance: engine at %d", sim.Round())
	}

	// /v1/status surfaces the queue.
	resp, err = http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		UnlearnQueue *struct {
			Pending  int `json:"pending"`
			InFlight int `json:"in_flight"`
			Passes   int `json:"passes"`
		} `json:"unlearn_queue"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.UnlearnQueue == nil {
		t.Fatal("status missing unlearn_queue block")
	}
	if st.UnlearnQueue.Pending != 0 || st.UnlearnQueue.InFlight != 0 || st.UnlearnQueue.Passes < 1 {
		t.Fatalf("unlearn_queue = %+v", *st.UnlearnQueue)
	}

	// Async-mode error mapping.
	postJSON := func(payload map[string]any) (int, string) {
		t.Helper()
		b, _ := json.Marshal(payload)
		resp, err := http.Post(base+"/v1/unlearn", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Code
	}
	if code, s := postJSON(map[string]any{"clients": []int{1}, "async": true, "strategy": "pga"}); code != http.StatusBadRequest || s != "bad_request" {
		t.Fatalf("async non-paper strategy → %d %q", code, s)
	}
	if code, s := postJSON(map[string]any{"clients": []int{1}, "async": true, "apply": false}); code != http.StatusBadRequest || s != "bad_request" {
		t.Fatalf("async dry run → %d %q", code, s)
	}
	resp, err = http.Get(base + "/v1/unlearn/u-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown request ID → %d", resp.StatusCode)
	}
}

// TestUnlearnStatusPollsHaveOwnTimer: GET /v1/unlearn/{id} is timed by
// its own timer, so polling an async request's status leaves the POST
// /v1/unlearn timer at one request.
func TestUnlearnStatusPollsHaveOwnTimer(t *testing.T) {
	sim, _, _ := loopFixture(t, 4, loopSchedule, nil)
	if err := sim.RunContext(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	_, base := startCoordinator(t, server.Config{Engine: sim, MaxRounds: 6, Telemetry: reg})
	body, _ := json.Marshal(map[string]any{"clients": []history.ClientID{1}, "async": true})
	resp, err := http.Post(base+"/v1/unlearn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		StatusPath string `json:"status_path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit → %d", resp.StatusCode)
	}
	polls, done := 0, false
	for deadline := time.Now().Add(30 * time.Second); polls < 3 || !done; polls++ {
		if time.Now().After(deadline) {
			t.Fatal("request never resolved")
		}
		resp, err := http.Get(base + accepted.StatusPath)
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if status.Status == "failed" {
			t.Fatalf("request failed: %+v", status)
		}
		done = status.Status == "done"
		time.Sleep(time.Millisecond)
	}
	if n := reg.Timer(telemetry.ServerHTTPUnlearn).Stats().Count; n != 1 {
		t.Errorf("%s count = %d after one POST and %d status polls, want 1", telemetry.ServerHTTPUnlearn, n, polls)
	}
	if n := reg.Timer(telemetry.ServerHTTPUnlearnStatus).Stats().Count; n != int64(polls) {
		t.Errorf("%s count = %d, want %d", telemetry.ServerHTTPUnlearnStatus, n, polls)
	}
}
