//go:build go1.24

package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"fuiov/internal/server"
)

// discardResponse is an http.ResponseWriter that keeps the status and
// drops the body, so a fetch's allocations are the handler's own.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestModelFetchReusesFrames: GET /v1/model/{cur} serves the exact
// current parameters, and a steady-state fetch copies them into a
// recycled upload frame instead of cloning the model — it allocates
// far less than one model's worth of bytes.
func TestModelFetchReusesFrames(t *testing.T) {
	sim, _, _ := loopFixture(t, 3, loopSchedule, nil)
	coord, err := server.New(server.Config{Engine: sim, MaxRounds: 2, RoundWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	dim := sim.Template().NumParams()

	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/model/0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/model/0: status %d: %s", rec.Code, rec.Body)
	}
	round, params, err := server.ReadModel(bytes.NewReader(rec.Body.Bytes()), dim)
	if err != nil || round != 0 || !slices.Equal(params, sim.Params()) {
		t.Fatalf("GET /v1/model/0 served round %d (err %v), params equal to the engine's: %v",
			round, err, slices.Equal(params, sim.Params()))
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/model/0", nil)
	w := &discardResponse{header: http.Header{}}
	fetch := func() {
		w.code = 0
		coord.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("GET /v1/model/0: status %d", w.code)
		}
	}
	for i := 0; i < 5; i++ {
		fetch()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	perFetch := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B allocated per fetch of a %d B model", perFetch, 8*dim)
	if perFetch >= float64(8*dim)/2 {
		t.Errorf("a model fetch allocates %.0f B, want well under the model's %d B", perFetch, 8*dim)
	}
}
