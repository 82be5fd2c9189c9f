package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/server"
)

// TestLyingClientWeight is the "what the RSU recorded survives a lying
// client" promise over loopback HTTP: a scheduled vehicle whose FUV1
// header claims an aggregation weight of −1, NaN or +Inf is answered
// 400 bad_frame without entering the round, the round still commits on
// the honest vehicles' uploads, and the history never runs ahead of
// the round clock — so the next round, the reformed liar included,
// commits too.
func TestLyingClientWeight(t *testing.T) {
	const liar = history.ClientID(0)
	sim, clients, store := loopFixture(t, 3, fl.AlwaysOn{}, &fl.FaultPolicy{Quorum: 0.5})
	_, base := startCoordinator(t, server.Config{
		Engine:      sim,
		RoundWindow: 250 * time.Millisecond,
		MaxRounds:   2,
	})

	type reply struct {
		Code       string `json:"code"`
		Committed  bool   `json:"committed"`
		Responders int    `json:"responders"`
	}
	post := func(cl *fl.Client, round int, weight float64) (int, reply) {
		g, err := cl.ComputeGradient(sim.Template().Clone(), sim.Params(), loopSeed, round)
		if err != nil {
			t.Error(err)
			return 0, reply{}
		}
		var body bytes.Buffer
		if err := server.WriteUpload(&body, cl.ID, round, weight, server.EncodingDense, g, 0, 1); err != nil {
			t.Error(err)
			return 0, reply{}
		}
		resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", &body)
		if err != nil {
			t.Error(err)
			return 0, reply{}
		}
		defer resp.Body.Close()
		var r reply
		_ = json.NewDecoder(resp.Body).Decode(&r)
		return resp.StatusCode, r
	}
	// round posts the given vehicles' honest uploads concurrently and
	// requires each to be told the round committed with want responders.
	round := func(t *testing.T, n int, want int, vehicles []*fl.Client) {
		t.Helper()
		var wg sync.WaitGroup
		for _, cl := range vehicles {
			wg.Add(1)
			go func(cl *fl.Client) {
				defer wg.Done()
				if code, r := post(cl, n, cl.Weight()); code != http.StatusOK || !r.Committed || r.Responders != want {
					t.Errorf("client %d round %d → %d %+v, want committed with %d responders", cl.ID, n, code, r, want)
				}
			}(cl)
		}
		wg.Wait()
		if store.Rounds() != sim.Round() || sim.Round() != n+1 {
			t.Fatalf("after round %d: store has %d rounds, engine clock at %d", n, store.Rounds(), sim.Round())
		}
	}

	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if code, r := post(clients[liar], 0, w); code != http.StatusBadRequest || r.Code != "bad_frame" {
			t.Fatalf("weight %v → %d %q, want 400 bad_frame", w, code, r.Code)
		}
	}
	// Round 0 resolves by window expiry on the two honest uploads.
	round(t, 0, 2, clients[1:])
	round(t, 1, 3, clients)
	for _, v := range sim.Params() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("served model is not finite")
		}
	}
}

// TestLyingClientScale is the same promise for the one header field a
// sign upload adds: a FUV1 sign frame whose scale is NaN or ±Inf —
// which, folded, would turn every parameter of the served model to NaN
// for everyone — is answered 400 bad_frame before its payload is read,
// the round commits on the honest vehicles' sign uploads, the history
// stays level with the round clock, and the next round, the reformed
// liar included, commits too.
func TestLyingClientScale(t *testing.T) {
	const liar = history.ClientID(0)
	sim, clients, store := loopFixture(t, 3, fl.AlwaysOn{}, &fl.FaultPolicy{Quorum: 0.5})
	_, base := startCoordinator(t, server.Config{
		Engine:      sim,
		RoundWindow: 250 * time.Millisecond,
		MaxRounds:   2,
	})

	type reply struct {
		Code       string `json:"code"`
		Committed  bool   `json:"committed"`
		Responders int    `json:"responders"`
	}
	post := func(cl *fl.Client, round int, scale float64) (int, reply) {
		g, err := cl.ComputeGradient(sim.Template().Clone(), sim.Params(), loopSeed, round)
		if err != nil {
			t.Error(err)
			return 0, reply{}
		}
		var body bytes.Buffer
		if err := server.WriteUpload(&body, cl.ID, round, cl.Weight(), server.EncodingSign, g, 1e-9, scale); err != nil {
			t.Error(err)
			return 0, reply{}
		}
		resp, err := http.Post(base+"/v1/round", "application/x-fuiov-upload", &body)
		if err != nil {
			t.Error(err)
			return 0, reply{}
		}
		defer resp.Body.Close()
		var r reply
		_ = json.NewDecoder(resp.Body).Decode(&r)
		return resp.StatusCode, r
	}
	// round posts the given vehicles' honest sign uploads concurrently
	// and requires each to be told the round committed with want
	// responders.
	round := func(t *testing.T, n int, want int, vehicles []*fl.Client) {
		t.Helper()
		var wg sync.WaitGroup
		for _, cl := range vehicles {
			wg.Add(1)
			go func(cl *fl.Client) {
				defer wg.Done()
				if code, r := post(cl, n, 0.01); code != http.StatusOK || !r.Committed || r.Responders != want {
					t.Errorf("client %d round %d → %d %+v, want committed with %d responders", cl.ID, n, code, r, want)
				}
			}(cl)
		}
		wg.Wait()
		if store.Rounds() != sim.Round() || sim.Round() != n+1 {
			t.Fatalf("after round %d: store has %d rounds, engine clock at %d", n, store.Rounds(), sim.Round())
		}
	}

	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if code, r := post(clients[liar], 0, s); code != http.StatusBadRequest || r.Code != "bad_frame" {
			t.Fatalf("scale %v → %d %q, want 400 bad_frame", s, code, r.Code)
		}
	}
	// Round 0 resolves by window expiry on the two honest uploads.
	round(t, 0, 2, clients[1:])
	round(t, 1, 3, clients)
	for _, v := range sim.Params() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("served model is not finite")
		}
	}
}
