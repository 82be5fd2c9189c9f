package agent

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/server"
	"fuiov/internal/telemetry"
)

const testSeed = 21

// coordinator is a scripted single-vehicle RSU speaking the agent's
// three routes. It serves rounds [0, rounds), takes a plain SGD step on
// every accepted upload so each round serves different parameters, and
// lets a test override the status of the nth request for a round's
// model or upload.
type coordinator struct {
	t      *testing.T
	rounds int

	// onModel and onUpload return the status to answer the nth (from
	// 0) request of their kind for round t with, or 0 for the normal
	// reply. A scripted 409 on an upload also closes the round, as a
	// window that resolved without the vehicle would.
	onModel, onUpload func(t, nth int) int

	mu      sync.Mutex
	round   int
	params  []float64
	served  [][]float64      // parameters served for each accepted round
	uploads []*server.Upload // accepted uploads, in round order
	models  map[int]int      // GET /v1/model/{t} count per round
	posts   map[int]int      // POST /v1/round count per claimed round
	polls   int              // GET /v1/status count
}

func newCoordinator(t *testing.T, rounds int, params []float64) *coordinator {
	return &coordinator{t: t, rounds: rounds, params: params,
		models: map[int]int{}, posts: map[int]int{}}
}

func (c *coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case r.URL.Path == "/v1/status":
		c.polls++
		_ = json.NewEncoder(w).Encode(map[string]any{
			"round": c.round, "done": c.round >= c.rounds, "dim": len(c.params)})
	case strings.HasPrefix(r.URL.Path, "/v1/model/"):
		t, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/v1/model/"))
		if err != nil {
			c.t.Errorf("bad model path %q", r.URL.Path)
		}
		nth := c.models[t]
		c.models[t]++
		if code := c.script(c.onModel, t, nth); code != 0 {
			w.WriteHeader(code)
			return
		}
		if t != c.round {
			w.WriteHeader(http.StatusConflict)
			return
		}
		if err := server.WriteModel(w, t, c.params); err != nil {
			c.t.Errorf("write model: %v", err)
		}
	case r.URL.Path == "/v1/round":
		up, err := server.ReadUpload(r.Body, len(c.params))
		if err != nil {
			c.t.Errorf("read upload: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		nth := c.posts[up.Round]
		c.posts[up.Round]++
		if code := c.script(c.onUpload, up.Round, nth); code != 0 {
			if code == http.StatusConflict && up.Round == c.round {
				c.round++
			}
			w.WriteHeader(code)
			return
		}
		if up.Round != c.round {
			w.WriteHeader(http.StatusConflict)
			return
		}
		c.served = append(c.served, append([]float64(nil), c.params...))
		c.uploads = append(c.uploads, up)
		for i, g := range up.Grad {
			c.params[i] -= 0.1 * g
		}
		c.round++
		_ = json.NewEncoder(w).Encode(map[string]any{"round": up.Round, "committed": true,
			"next_round": c.round, "done": c.round >= c.rounds})
	default:
		c.t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		w.WriteHeader(http.StatusNotFound)
	}
}

func (c *coordinator) script(f func(t, nth int) int, t, nth int) int {
	if f == nil {
		return 0
	}
	return f(t, nth)
}

// testVehicle returns a vehicle with a 40-sample traffic shard drawing
// 24-sample mini-batches (two micro-batches, the second partial) and
// the CNN template for it. Each call builds identical data.
func testVehicle() (*fl.Client, *nn.Network) {
	data := dataset.SynthTraffic(dataset.DefaultTraffic(40, testSeed))
	net := nn.NewTrafficCNN(data.Dims.H, data.Classes)
	net.Init(rng.New(testSeed))
	return &fl.Client{ID: 3, Data: data, BatchSize: 24}, net
}

// runAgent drives one agent against c until Run returns.
func runAgent(t *testing.T, c *coordinator, mutate func(*Config)) error {
	t.Helper()
	srv := httptest.NewServer(c)
	defer srv.Close()
	client, template := testVehicle()
	cfg := Config{BaseURL: srv.URL, Client: client, Template: template,
		Seed: testSeed, PollInterval: time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return a.Run(ctx)
}

// TestAgentUploadsMatchInProcess checks that what an agent puts on the
// wire in round t is, bit for bit, what fl.Client.ComputeGradient
// returns in-process at the parameters served for t — over several
// rounds with moving parameters and mini-batches, so anything the
// agent's reused model, frame and training buffers carried from one
// round into the next would show.
func TestAgentUploadsMatchInProcess(t *testing.T) {
	const rounds = 4
	_, template := testVehicle()
	c := newCoordinator(t, rounds, template.ParamVector())
	if err := runAgent(t, c, nil); err != nil {
		t.Fatal(err)
	}
	if len(c.uploads) != rounds {
		t.Fatalf("accepted %d uploads, want %d", len(c.uploads), rounds)
	}
	for round, up := range c.uploads {
		// A fresh twin per round: nothing reused on the reference side.
		twin, _ := testVehicle()
		want, err := twin.ComputeGradient(template, c.served[round], testSeed, round)
		if err != nil {
			t.Fatal(err)
		}
		if up.Client != twin.ID || up.Round != round || up.Weight != twin.Weight() {
			t.Fatalf("round %d: upload header (%d, %d, %v)", round, up.Client, up.Round, up.Weight)
		}
		for i := range want {
			if math.Float64bits(up.Grad[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: gradient element %d = %v over the wire, %v in-process",
					round, i, up.Grad[i], want[i])
			}
		}
		if round > 0 && math.Float64bits(up.Grad[0]) == math.Float64bits(c.uploads[round-1].Grad[0]) {
			t.Fatalf("round %d repeated round %d's gradient", round, round-1)
		}
	}
}

// TestAgentFollowsRoundReply checks that a vehicle in coverage for the
// whole run follows each commit's reply to the next round: one status
// poll at start, one model fetch and one upload per round, and no
// upload after the reply that says training is done (so no 410).
func TestAgentFollowsRoundReply(t *testing.T) {
	const rounds = 4
	_, template := testVehicle()
	c := newCoordinator(t, rounds, template.ParamVector())
	if err := runAgent(t, c, nil); err != nil {
		t.Fatal(err)
	}
	if c.polls != 1 {
		t.Errorf("%d status polls, want 1", c.polls)
	}
	for round := 0; round <= rounds; round++ {
		want := 1
		if round == rounds {
			want = 0
		}
		if c.models[round] != want || c.posts[round] != want {
			t.Errorf("round %d: %d model fetches and %d uploads, want %d of each",
				round, c.models[round], c.posts[round], want)
		}
	}
}

// TestAgentStatusMapping scripts one off-nominal reply in round 1 of 3
// and checks the agent's documented reaction: 410 ends the run, 404 and
// 409 on the model and 503/408 on the upload fall back to the status
// poll and take the round again, and a 409 on the upload — the round
// closed without it — is not re-sent.
func TestAgentStatusMapping(t *testing.T) {
	nthIs := func(round, n, code int) func(t, nth int) int {
		return func(t, nth int) int {
			if t == round && nth == n {
				return code
			}
			return 0
		}
	}
	cases := []struct {
		name             string
		onModel          func(t, nth int) int
		onUpload         func(t, nth int) int
		accepted         []int // rounds whose upload was accepted
		models1, uploads int   // requests seen for round 1
	}{
		{name: "nominal", accepted: []int{0, 1, 2}, models1: 1, uploads: 1},
		{name: "model 404 resyncs", onModel: nthIs(1, 0, http.StatusNotFound),
			accepted: []int{0, 1, 2}, models1: 2, uploads: 1},
		{name: "model 409 resyncs", onModel: nthIs(1, 0, http.StatusConflict),
			accepted: []int{0, 1, 2}, models1: 2, uploads: 1},
		{name: "model 410 ends the run", onModel: nthIs(1, 0, http.StatusGone),
			accepted: []int{0}, models1: 1, uploads: 0},
		{name: "upload 503 takes the round again", onUpload: nthIs(1, 0, http.StatusServiceUnavailable),
			accepted: []int{0, 1, 2}, models1: 2, uploads: 2},
		{name: "upload 408 takes the round again", onUpload: nthIs(1, 0, http.StatusRequestTimeout),
			accepted: []int{0, 1, 2}, models1: 2, uploads: 2},
		{name: "stale upload 409 is not re-sent", onUpload: nthIs(1, 0, http.StatusConflict),
			accepted: []int{0, 2}, models1: 1, uploads: 1},
		{name: "upload 410 ends the run", onUpload: nthIs(1, 0, http.StatusGone),
			accepted: []int{0}, models1: 1, uploads: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, template := testVehicle()
			c := newCoordinator(t, 3, template.ParamVector())
			c.onModel, c.onUpload = tc.onModel, tc.onUpload
			// A retry budget is on offer; HTTP statuses must not draw on it.
			reg := telemetry.New()
			err := runAgent(t, c, func(cfg *Config) {
				cfg.Policy = &fl.FaultPolicy{MaxRetries: 3}
				cfg.Telemetry = reg
			})
			if err != nil {
				t.Fatal(err)
			}
			var accepted []int
			for _, up := range c.uploads {
				accepted = append(accepted, up.Round)
			}
			if len(accepted) != len(tc.accepted) {
				t.Fatalf("accepted rounds %v, want %v", accepted, tc.accepted)
			}
			for i := range accepted {
				if accepted[i] != tc.accepted[i] {
					t.Fatalf("accepted rounds %v, want %v", accepted, tc.accepted)
				}
			}
			if c.models[1] != tc.models1 || c.posts[1] != tc.uploads {
				t.Errorf("round 1 saw %d model fetches and %d uploads, want %d and %d",
					c.models[1], c.posts[1], tc.models1, tc.uploads)
			}
			if n := reg.Counter(telemetry.ServerAgentRetries).Value(); n != 0 {
				t.Errorf("%d transport retries for an HTTP status", n)
			}
		})
	}
}

// flakyTransport fails the first fail POSTs with a transport error
// before they reach the server.
type flakyTransport struct {
	mu   sync.Mutex
	fail int
}

var errFlaky = errors.New("flaky transport: connection reset")

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	drop := r.Method == http.MethodPost && f.fail > 0
	if drop {
		f.fail--
	}
	f.mu.Unlock()
	if drop {
		return nil, errFlaky
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestAgentRetriesTransportErrors checks that a transport failure is
// retried within the FaultPolicy's budget with the frame intact, and
// surfaces once the budget is spent — at once without a policy.
func TestAgentRetriesTransportErrors(t *testing.T) {
	run := func(policy *fl.FaultPolicy) (*coordinator, *telemetry.Registry, *flakyTransport, error) {
		_, template := testVehicle()
		c := newCoordinator(t, 2, template.ParamVector())
		reg := telemetry.New()
		tr := &flakyTransport{fail: 2}
		err := runAgent(t, c, func(cfg *Config) {
			cfg.HTTPClient = &http.Client{Transport: tr}
			cfg.Policy = policy
			cfg.Telemetry = reg
		})
		return c, reg, tr, err
	}
	retrying := func(maxRetries int) *fl.FaultPolicy {
		return &fl.FaultPolicy{MaxRetries: maxRetries}
	}

	c, reg, _, err := run(retrying(2))
	if err != nil {
		t.Fatalf("two failures within a budget of two retries: %v", err)
	}
	if len(c.uploads) != 2 || c.posts[0] != 1 {
		t.Errorf("accepted %d uploads, round 0 reached the server %d times; want 2 and 1",
			len(c.uploads), c.posts[0])
	}
	if n := reg.Counter(telemetry.ServerAgentRetries).Value(); n != 2 {
		t.Errorf("counted %d retries, want 2", n)
	}
	twin, template := testVehicle()
	want, err := twin.ComputeGradient(template, c.served[0], testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(c.uploads[0].Grad[i]) != math.Float64bits(want[i]) {
			t.Fatalf("retried upload differs from the computed gradient at %d", i)
		}
	}

	c, _, _, err = run(retrying(1))
	if !errors.Is(err, errFlaky) {
		t.Fatalf("two failures against a budget of one retry: err = %v, want the transport error", err)
	}
	if len(c.uploads) != 0 {
		t.Errorf("accepted %d uploads after the budget ran out", len(c.uploads))
	}

	c, reg, tr, err := run(nil)
	if !errors.Is(err, errFlaky) {
		t.Fatalf("a failure without a policy: err = %v, want the transport error", err)
	}
	if tr.fail != 1 {
		t.Errorf("made %d upload attempts without a policy, want 1", 2-tr.fail)
	}
	if n := reg.Counter(telemetry.ServerAgentRetries).Value(); n != 0 || len(c.uploads) != 0 {
		t.Errorf("counted %d retries and accepted %d uploads without a policy, want 0 and 0", n, len(c.uploads))
	}
}
