package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"fuiov/internal/agent"
	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/server"
)

// ExampleNew serves the federation over HTTP: vehicle agents train
// against a networked coordinator, then a client erases a vehicle
// through POST /v1/unlearn — the protocol documented in PROTOCOL.md.
// Rounds served this way are bit-identical to in-process ones.
func ExampleNew() {
	const seed, rounds = 7, 3
	data := dataset.SynthDigits(dataset.DefaultDigits(200, seed))
	shards, err := dataset.PartitionIID(data, rng.New(seed), 4)
	if err != nil {
		fmt.Println("partition:", err)
		return
	}
	clients := make([]*fl.Client, len(shards))
	for i, s := range shards {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: s}
	}
	model := nn.NewMLP(data.Dims.Size(), 8, data.Classes)
	model.Init(rng.New(seed))
	store, err := history.NewStore(model.NumParams(), 1e-2)
	if err != nil {
		fmt.Println("store:", err)
		return
	}
	sim, err := fl.NewSimulation(model, clients, fl.Config{
		LearningRate: 0.05, Seed: seed, Store: store,
	})
	if err != nil {
		fmt.Println("simulation:", err)
		return
	}
	coord, err := server.New(server.Config{
		Engine: sim, MaxRounds: rounds,
	})
	if err != nil {
		fmt.Println("coordinator:", err)
		return
	}
	defer coord.Close()
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// Each vehicle is an agent following the coordinator over HTTP:
	// fetch the round's model, compute locally, upload, repeat.
	var wg sync.WaitGroup
	for _, cl := range clients {
		a, err := agent.New(agent.Config{
			BaseURL: ts.URL, Client: cl, Template: model.Clone(), Seed: seed,
		})
		if err != nil {
			fmt.Println("agent:", err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Run(context.Background())
		}()
	}
	wg.Wait()
	fmt.Printf("trained to round %d over HTTP\n", sim.Round())

	// Erase vehicle 2 through the wire protocol.
	resp, err := http.Post(ts.URL+"/v1/unlearn", "application/json",
		strings.NewReader(`{"clients":[2]}`))
	if err != nil {
		fmt.Println("unlearn:", err)
		return
	}
	defer resp.Body.Close()
	var reply struct {
		BacktrackRound  int  `json:"backtrack_round"`
		RecoveredRounds int  `json:"recovered_rounds"`
		Applied         bool `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		fmt.Println("decode:", err)
		return
	}
	fmt.Printf("unlearned: backtracked to round %d, recovered %d rounds, applied %v\n",
		reply.BacktrackRound, reply.RecoveredRounds, reply.Applied)
	// Output:
	// trained to round 3 over HTTP
	// unlearned: backtracked to round 0, recovered 3 rounds, applied true
}
