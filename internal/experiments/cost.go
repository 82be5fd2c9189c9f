package experiments

import (
	"context"
	"fmt"
	"strings"

	"fuiov/internal/unlearn/strategy"
)

// CostRow quantifies what one unlearning method costs beyond the
// server's CPU: how many gradient computations it demands from
// vehicles during recovery, how many bytes cross the vehicle↔RSU link
// for them, and how many bytes of per-round gradient state the server
// must keep. These are the §I/§II arguments for the paper's design —
// vehicles may be offline, so client cost must be zero, and RSU
// storage must be small.
type CostRow struct {
	Method string
	// ClientGradComputations during recovery (0 = works offline).
	ClientGradComputations int
	// ClientCommBytes moved over the vehicle link for those
	// computations (model down + gradient up, 8 bytes/param each way).
	ClientCommBytes int
	// ServerGradStorageBytes of per-round gradient state the method
	// requires the server to retain.
	ServerGradStorageBytes int
}

// CostTable trains one deployment and derives each method's recovery
// cost. Retraining and FedRecover require online vehicles; FedRecovery
// and Ours do not, but FedRecovery still needs full gradients stored.
func CostTable(ctx context.Context, scale Scale, seed uint64) ([]CostRow, error) {
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	dim := dep.Template.NumParams()
	perCall := 2 * 8 * dim // model down + gradient up
	remaining := len(dep.Clients) - len(dep.Forgotten())

	fullBytes := dep.Full.StorageBytes()
	dirBytes := dep.Store.Storage().DirectionBytes

	// FedRecover's exact-call count comes from actually running it.
	fr, err := strategy.Unlearn(ctx, "fedrecover", dep.request())
	if err != nil {
		return nil, fmt.Errorf("experiments: cost: %w", err)
	}

	retrainCalls := scale.Rounds * remaining
	rows := []CostRow{
		{
			Method:                 "Retraining",
			ClientGradComputations: retrainCalls,
			ClientCommBytes:        retrainCalls * perCall,
			ServerGradStorageBytes: 0, // needs no history at all
		},
		{
			Method:                 "FedRecover",
			ClientGradComputations: fr.ClientWork,
			ClientCommBytes:        fr.ClientWork * perCall,
			ServerGradStorageBytes: fullBytes,
		},
		{
			Method:                 "FedRecovery",
			ClientGradComputations: 0,
			ClientCommBytes:        0,
			ServerGradStorageBytes: fullBytes,
		},
		{
			Method:                 "Ours",
			ClientGradComputations: 0,
			ClientCommBytes:        0,
			ServerGradStorageBytes: dirBytes,
		},
	}
	return rows, nil
}

// FormatCost renders the cost comparison.
func FormatCost(rows []CostRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery cost per method (client side + server gradient storage)\n")
	fmt.Fprintf(&b, "%-12s %12s %14s %16s\n",
		"Method", "client grads", "client bytes", "server grad bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12d %14d %16d\n",
			r.Method, r.ClientGradComputations, r.ClientCommBytes, r.ServerGradStorageBytes)
	}
	return b.String()
}
