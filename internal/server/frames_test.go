package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/rng"
	"fuiov/internal/server"
)

// TestDenseFramesRecycledOnlyAfterCommit: the coordinator reads dense
// uploads into recycled frames, and a frame the round has taken must
// not come back before the round resolves. Every round here first
// sends dense frames that are refused (round_mismatch,
// deadline_exceeded, unknown_client, not_scheduled) and, after the
// first real upload is in, a duplicate of it with other values, so
// frames circulate; then the scheduled clients post one at a time. One
// round is under quorum and skipped (SkipOnQuorumFailure); in another
// the first uploader goes away after its upload is taken. Each
// committed model must equal, bit for bit, an in-process twin fed the
// uploads the round kept: a frame handed out while its round still
// held it would have been overwritten by a later upload.
func TestDenseFramesRecycledOnlyAfterCommit(t *testing.T) {
	const n, rounds, skipRound, goneRound = 6, 10, 4, 7
	policy := &fl.FaultPolicy{Quorum: 0.75}
	sim, clients, _ := loopFixture(t, n, loopSchedule, policy)
	twin, _, _ := loopFixture(t, n, loopSchedule, policy)
	_, base := startCoordinator(t, server.Config{
		Engine:              sim,
		MaxRounds:           rounds,
		RoundWindow:         time.Second,
		SkipOnQuorumFailure: true,
	})
	dim := sim.Template().NumParams()
	r := rng.New(loopSeed)

	grad := func() []float64 {
		g := make([]float64, dim)
		for i := range g {
			g[i] = r.NormalScaled(0, 1)
		}
		return g
	}
	frame := func(id history.ClientID, round int, g []float64) []byte {
		var buf bytes.Buffer
		if err := server.WriteUpload(&buf, id, round, 1+float64(id), server.EncodingDense, g, 0, 1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	post := func(ctx context.Context, body []byte) (int, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/round", bytes.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		var e struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Code, nil
	}
	refuse := func(body []byte, status int, code string) {
		t.Helper()
		got, gotCode, err := post(context.Background(), body)
		if err != nil || got != status || gotCode != code {
			t.Fatalf("upload → %d %q (%v), want %d %q", got, gotCode, err, status, code)
		}
	}
	responders := func() int {
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Responders int `json:"responders"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Responders
	}
	model := func(round int) []float64 {
		resp, err := http.Get(fmt.Sprintf("%s/v1/model/%d", base, round))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, params, err := server.ReadModel(resp.Body, dim)
		if err != nil || got != round {
			t.Fatalf("model %d: round %d, %v", round, got, err)
		}
		return params
	}

	for round := 0; round < rounds; round++ {
		var sched []history.ClientID
		var unsched history.ClientID
		for _, cl := range clients {
			if loopSchedule.Participates(cl.ID, round) {
				sched = append(sched, cl.ID)
			} else {
				unsched = cl.ID
			}
		}
		refuse(frame(sched[0], round+1, grad()), http.StatusConflict, "round_mismatch")
		if round > 0 {
			refuse(frame(sched[0], round-1, grad()), http.StatusRequestTimeout, "deadline_exceeded")
		}
		refuse(frame(99, round, grad()), http.StatusNotFound, "unknown_client")
		refuse(frame(unsched, round, grad()), http.StatusConflict, "not_scheduled")

		posters := sched
		if round == skipRound {
			posters = sched[:1] // 1 of 4 or 5 scheduled: under quorum
		}
		kept := make(map[history.ClientID][]float64, len(posters))
		var wg sync.WaitGroup
		for i, id := range posters {
			g := grad()
			kept[id] = g
			ctx, cancel := context.WithCancel(context.Background())
			gone := round == goneRound && i == 0
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				defer cancel()
				status, code, err := post(ctx, body)
				switch {
				case gone:
					if err == nil {
						t.Errorf("round %d: the cancelled upload answered %d %q", round, status, code)
					}
				case err != nil:
					t.Errorf("round %d: %v", round, err)
				case round == skipRound:
					if status != http.StatusServiceUnavailable || code != "quorum_not_reached" {
						t.Errorf("round %d: under-quorum upload → %d %q", round, status, code)
					}
				case status != http.StatusOK:
					t.Errorf("round %d: upload → %d %q", round, status, code)
				}
			}(frame(id, round, g))
			if i+1 == len(posters) {
				break // the last upload resolves the round
			}
			deadline := time.Now().Add(5 * time.Second)
			for responders() < i+1 {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: upload %d never taken", round, i)
				}
				time.Sleep(time.Millisecond)
			}
			if i == 0 {
				refuse(frame(id, round, grad()), http.StatusConflict, "duplicate_upload")
			}
			if gone {
				cancel()
			}
		}
		wg.Wait()

		rs, err := twin.NewRoundStream()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range posters {
			if err := rs.Add(id, kept[id], 1+float64(id)); err != nil {
				t.Fatal(err)
			}
		}
		err = twin.SubmitRoundStream(rs, len(sched))
		if round == skipRound {
			if !errors.Is(err, fl.ErrQuorumNotReached) {
				t.Fatalf("twin round %d: %v, want quorum failure", round, err)
			}
			err = twin.SkipRound()
		}
		if err != nil {
			t.Fatal(err)
		}
		got, want := model(round+1), twin.Params()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: served param %d = %v, in-process twin %v", round, i, got[i], want[i])
			}
		}
	}
}
