package telemetry

import "testing"

// TestStrategyMetricNamespace pins the unlearning-strategy metric
// namespace: every strategy registered in internal/unlearn/strategy
// owns a total timer under unlearn.strategy.<name>.total, and every
// strategy-scoped constant declared here carries that prefix. The
// strategy list is duplicated by hand because telemetry sits below the
// strategy package in the import graph; the strategy package's own
// tests cross-check the live registry against these constants.
// TestStreamMetricNamespace pins the streaming-aggregation metric
// namespace: every constant describing the fold-on-arrival path lives
// under fl.stream., so dashboards and the scale benchmark can select
// the whole family by prefix.
func TestStreamMetricNamespace(t *testing.T) {
	const prefix = "fl.stream."
	scoped := map[string]string{
		"FLStreamFold":      FLStreamFold,
		"FLStreamResolve":   FLStreamResolve,
		"FLStreamFolds":     FLStreamFolds,
		"FLStreamAbsentees": FLStreamAbsentees,
		"FLStreamShards":    FLStreamShards,
	}
	seen := map[string]bool{}
	for constant, name := range scoped {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			t.Errorf("%s = %q escapes the %q namespace", constant, name, prefix)
		}
		if seen[name] {
			t.Errorf("%s duplicates metric name %q", constant, name)
		}
		seen[name] = true
	}
}

// TestQueueMetricNamespace pins the unlearning-queue metric namespace:
// every constant describing the concurrent unlearning service lives
// under unlearn.queue., with no duplicates, so dashboards can select
// the whole family by prefix.
func TestQueueMetricNamespace(t *testing.T) {
	const prefix = "unlearn.queue."
	scoped := map[string]string{
		"UnlearnQueueDepth":     UnlearnQueueDepth,
		"UnlearnQueueInFlight":  UnlearnQueueInFlight,
		"UnlearnQueueCoalesced": UnlearnQueueCoalesced,
		"UnlearnQueueDeduped":   UnlearnQueueDeduped,
		"UnlearnQueueRejected":  UnlearnQueueRejected,
		"UnlearnQueuePasses":    UnlearnQueuePasses,
		"UnlearnQueuePass":      UnlearnQueuePass,
	}
	seen := map[string]bool{}
	for constant, name := range scoped {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			t.Errorf("%s = %q escapes the %q namespace", constant, name, prefix)
		}
		if seen[name] {
			t.Errorf("%s duplicates metric name %q", constant, name)
		}
		seen[name] = true
	}
}

func TestStrategyMetricNamespace(t *testing.T) {
	perStrategyTotal := map[string]string{
		"paper":       StrategyPaperTotal,
		"retrain":     RetrainTotal,
		"fedrecover":  FedRecoverTotal,
		"fedrecovery": FedRecoveryTotal,
		"federaser":   FedEraserTotal,
		"pga":         PGATotal,
		"not":         NoTTotal,
	}
	for name, total := range perStrategyTotal {
		want := StrategyPrefix + name + ".total"
		if total != want {
			t.Errorf("strategy %q total timer = %q, want %q", name, total, want)
		}
	}
	scoped := []string{
		StrategyPaperTotal, RetrainTotal,
		FedRecoverTotal, FedRecoverExact, FedRecoverEstimated,
		FedRecoverRetries, FedRecoverOffline,
		FedRecoveryTotal,
		FedEraserTotal, FedEraserCalibrated,
		PGATotal, PGAAscentSteps,
		NoTTotal,
	}
	for _, name := range scoped {
		if len(name) <= len(StrategyPrefix) || name[:len(StrategyPrefix)] != StrategyPrefix {
			t.Errorf("strategy metric %q escapes the %q namespace", name, StrategyPrefix)
		}
	}
}

// TestVerifyMetricNamespace pins the forgetting-verification metric
// namespace: every constant describing the shadow-model MIA, backdoor
// retention and relearn-time suite lives under verify., with no
// duplicates, so dashboards can select the whole family by prefix.
func TestVerifyMetricNamespace(t *testing.T) {
	const prefix = "verify."
	scoped := map[string]string{
		"VerifySuite":         VerifySuite,
		"VerifyShadowTrain":   VerifyShadowTrain,
		"VerifyShadowModels":  VerifyShadowModels,
		"VerifyAttackFit":     VerifyAttackFit,
		"VerifyMIAEvals":      VerifyMIAEvals,
		"VerifyRelearnRounds": VerifyRelearnRounds,
		"VerifyScores":        VerifyScores,
		"VerifyScoreTime":     VerifyScoreTime,
	}
	seen := map[string]bool{}
	for constant, name := range scoped {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			t.Errorf("%s = %q escapes the %q namespace", constant, name, prefix)
		}
		if seen[name] {
			t.Errorf("%s duplicates metric name %q", constant, name)
		}
		seen[name] = true
	}
}
