package telemetry

// Canonical metric names. The instrumented packages register their
// metrics under these strings, so examples, tests and external
// observers can obtain the same live handles via Registry.Counter,
// Registry.Gauge and Registry.Timer.
const (
	// fl.Simulation — one federated round. Every round is a RoundStream
	// committed by SubmitRoundStream; round and compute are observed
	// only by the in-process loop (RunRound), record and aggregate by
	// every commit.
	FLRound          = "fl.round"           // timer: whole round
	FLRoundCompute   = "fl.round.compute"   // timer: client gradient phase (chunked compute + adds to the round)
	FLRoundRecord    = "fl.round.record"    // timer: history (packed directions) + recorder phase of the commit
	FLRoundAggregate = "fl.round.aggregate" // timer: the round aggregator's Resolve at commit
	FLRounds         = "fl.rounds"          // counter: rounds executed
	FLParticipants   = "fl.participants"    // counter: uploads in committed rounds
	FLClientErrors   = "fl.client_errors"   // counter: failed client computations

	// nn compute-kernel attribution. fl.NewSimulation enables the
	// process-wide kernel clocks when telemetry is configured; each
	// RunRound then observes the share of the compute phase spent in
	// the conv layers' pack / GEMM / unpack stages.
	NNKernelPack   = "nn.kernel.pack"   // timer: zero-padded copies per round
	NNKernelGEMM   = "nn.kernel.gemm"   // timer: GEMM time per round
	NNKernelUnpack = "nn.kernel.unpack" // timer: padded-width copy-outs per round

	// The round's fl.StreamAggregator — ShardedFedAvg under
	// Config.Streaming, the buffering cohort otherwise (DESIGN.md §13,
	// §15). Uploads enter it the moment they arrive (RoundStream.Add),
	// so these metrics describe arrival, resolve and absentee
	// accounting in both modes.
	FLStreamFold      = "fl.stream.fold"      // timer: the aggregator's take of one upload (a shard fold — dense or straight off the packed direction — or a buffered reference, with the one expansion a packed upload needs there)
	FLStreamResolve   = "fl.stream.resolve"   // timer: StreamAggregator.Resolve per round (tree reduction, or FedAvg over the buffered cohort)
	FLStreamFolds     = "fl.stream.folds"     // counter: uploads accepted into a round
	FLStreamAbsentees = "fl.stream.absentees" // counter: scheduled clients absent from a committed round (counted, never mapped)
	FLStreamShards    = "fl.stream.shards"    // gauge: shard count P under Config.Streaming

	// fl fault-tolerant execution layer (Simulation under a
	// FaultPolicy; see internal/faults).
	FLRetries          = "fl.retries"           // counter: retried client attempts
	FLTimeouts         = "fl.timeouts"          // counter: attempts cut off by the per-client deadline
	FLCrashes          = "fl.crashes"           // counter: attempts lost to injected crashes
	FLCorruptUploads   = "fl.corrupt_uploads"   // counter: uploads rejected by validation
	FLAbsentees        = "fl.absentees"         // counter: scheduled clients absent from a completed round
	FLDegradedRounds   = "fl.degraded_rounds"   // counter: rounds aggregated below full participation
	FLQuorumShortfalls = "fl.quorum_shortfalls" // counter: rounds abandoned for lack of quorum
	FLSkippedRounds    = "fl.skipped_rounds"    // counter: rounds skipped by the caller via SkipRound

	// history.Store — round recording and storage accounting.
	HistoryRecord          = "history.record"             // timer: whole RecordRound / RecordRoundDirs
	HistoryCompress        = "history.compress"           // timer: direction compression only — per upload on arrival (fl.RoundStream.Add), per call in Store.RecordRound; none for an upload that arrived packed (RoundStream.AddDirection with scale > δ: nothing is compressed)
	HistoryRounds          = "history.rounds"             // counter: rounds recorded
	HistoryDirectionBytes  = "history.bytes.directions"   // counter: packed direction bytes stored
	HistoryModelBytes      = "history.bytes.models"       // counter: model snapshot bytes stored
	HistoryFullEquivBytes  = "history.bytes.full_equiv"   // counter: float64-equivalent gradient bytes
	HistorySaving          = "history.compression_saving" // gauge: 1 − directions/full_equiv
	HistoryCompressedElems = "history.compress.elements"  // counter: recorded elements that passed through the codec, here or upstream (a sign upload was compressed by its vehicle)
	HistorySpilledRounds   = "history.spill.rounds"       // counter: snapshots moved to the spill file
	HistorySpilledBytes    = "history.spill.bytes"        // counter: snapshot bytes moved to the spill file
	HistorySpillHits       = "history.spill.cache_hits"   // counter: spilled reads served from the hot cache
	HistorySpillMisses     = "history.spill.cache_misses" // counter: spilled reads served from disk

	// unlearn.Unlearner — backtracking + server-side recovery.
	UnlearnBacktrackRound  = "unlearn.backtrack.round"      // gauge: F of the last request
	UnlearnBacktrackDepth  = "unlearn.backtrack.depth"      // gauge: T − F of the last request
	UnlearnRecoverRound    = "unlearn.recover.round"        // timer: one recovered round
	UnlearnEstimate        = "unlearn.recover.estimate"     // timer: parallel gradient estimation
	UnlearnAggregate       = "unlearn.recover.aggregate"    // timer: aggregation + model update
	UnlearnRecoveredRounds = "unlearn.rounds_recovered"     // counter
	UnlearnPairRefreshes   = "unlearn.pair_refreshes"       // counter
	UnlearnFallbacks       = "unlearn.fallbacks"            // counter: raw-direction fallbacks
	UnlearnClipActivations = "unlearn.clip_activations"     // counter: elements/vectors clipped by eq. 7
	UnlearnBootstraps      = "unlearn.bootstrapped_clients" // counter
	UnlearnBootstrapSkips  = "unlearn.bootstrap_offline"    // counter: bootstrap rounds skipped (offline fallback)

	// unlearn.Queue — the concurrent unlearning service (request
	// admission, coalescing and overlapped commit passes; see
	// DESIGN.md §16).
	UnlearnQueueDepth     = "unlearn.queue.depth"     // gauge: requests waiting for the next pass
	UnlearnQueueInFlight  = "unlearn.queue.in_flight" // gauge: requests folded into the running pass
	UnlearnQueueCoalesced = "unlearn.queue.coalesced" // counter: extra requests folded into a shared pass (K−1 per batch)
	UnlearnQueueDeduped   = "unlearn.queue.deduped"   // counter: submissions answered with an existing request ID
	UnlearnQueueRejected  = "unlearn.queue.rejected"  // counter: submissions refused by admission control
	UnlearnQueuePasses    = "unlearn.queue.passes"    // counter: coalesced passes executed
	UnlearnQueuePass      = "unlearn.queue.pass"      // timer: one coalesced pass (begin → commit)

	// simtest — the deterministic scenario harness (internal/simtest).
	// One Checker run over one scenario drives the composed system
	// (faults × spill × parallelism × membership × unlearning) through
	// the facade; these counters give per-scenario coverage accounting.
	SimScenarios         = "simtest.scenarios"          // counter: scenarios checked
	SimScenarioRounds    = "simtest.rounds"             // counter: federated rounds executed across all variants
	SimScenarioUnlearns  = "simtest.unlearns"           // counter: unlearning operations executed
	SimScenarioSkips     = "simtest.skipped_rounds"     // counter: quorum-doomed rounds skipped via SkipRound
	SimScenarioSaveLoads = "simtest.saveloads"          // counter: mid-scenario Save/Load resume checks
	SimInvariantFailures = "simtest.invariant_failures" // counter: invariant violations detected
	SimShrinkSteps       = "simtest.shrink.steps"       // counter: accepted shrink transformations
	SimShrinkRuns        = "simtest.shrink.runs"        // counter: candidate re-executions during shrinking
	SimScenarioTime      = "simtest.scenario"           // timer: one full scenario check

	// server — the networked RSU round coordinator (internal/server).
	// Request counters/timers are per endpoint; the round metrics
	// describe the wall-clock collection windows that feed
	// fl.RoundStream.
	ServerRequests          = "server.requests"            // counter: HTTP requests served (all endpoints)
	ServerRequestErrors     = "server.request_errors"      // counter: requests answered with a 4xx/5xx status
	ServerHTTPRound         = "server.http.round"          // timer: POST /v1/round request latency (includes barrier wait)
	ServerHTTPUnlearn       = "server.http.unlearn"        // timer: POST /v1/unlearn request latency
	ServerHTTPUnlearnStatus = "server.http.unlearn_status" // timer: GET /v1/unlearn/{id} request latency
	ServerHTTPModel         = "server.http.model"          // timer: GET /v1/model/{round} request latency
	ServerHTTPStatus        = "server.http.status"         // timer: GET /v1/status request latency
	ServerHTTPMetrics       = "server.http.metrics"        // timer: GET /v1/metrics request latency
	ServerUploadBytes       = "server.upload.bytes"        // counter: upload payload bytes accepted
	ServerModelBytes        = "server.model.bytes"         // counter: model payload bytes served
	ServerRoundsServed      = "server.rounds"              // counter: rounds committed through the HTTP path
	ServerRoundsExpired     = "server.rounds_expired"      // counter: collection windows resolved by deadline expiry
	ServerRoundsFailed      = "server.rounds_failed"       // counter: collection windows failed below quorum
	ServerLateUploads       = "server.late_uploads"        // counter: uploads rejected for missing their round's window
	ServerUnlearns          = "server.unlearns"            // counter: unlearning operations served
	ServerRoundWait         = "server.round.wait"          // timer: upload arrival → round resolution latency
	ServerOpenWindow        = "server.round.window"        // timer: round window open → resolution
	ServerSignUploads       = "server.uploads.sign"        // counter: sign-compressed uploads accepted
	ServerDenseUploads      = "server.uploads.dense"       // counter: dense uploads accepted
	ServerAgentRounds       = "agent.rounds"               // counter: rounds an agent participated in
	ServerAgentSkips        = "agent.rounds_skipped"       // counter: rounds an agent sat out (no coverage)
	ServerAgentRetries      = "agent.upload_retries"       // counter: agent upload retries
	ServerAgentWaits        = "agent.status_polls"         // counter: agent status polls while waiting
	ServerAgentUploadDur    = "agent.upload"               // timer: agent upload round-trip latency

	// unlearn.strategy.<name>.* — the pluggable strategy layer
	// (internal/unlearn/strategy). Every registered strategy times its
	// whole run under unlearn.strategy.<Name()>.total; strategy-
	// specific tallies nest under the same prefix. The former
	// baselines.* names moved here so one namespace covers every
	// unlearning algorithm, hardcoded or pluggable.
	StrategyPaperTotal  = "unlearn.strategy.paper.total"            // timer: whole paper-scheme run through the strategy layer
	RetrainTotal        = "unlearn.strategy.retrain.total"          // timer: whole retraining run
	FedRecoverTotal     = "unlearn.strategy.fedrecover.total"       // timer: whole FedRecover run
	FedRecoverExact     = "unlearn.strategy.fedrecover.exact_calls" // counter: client gradient computations
	FedRecoverEstimated = "unlearn.strategy.fedrecover.estimated_rounds"
	FedRecoverRetries   = "unlearn.strategy.fedrecover.retries"           // counter: retried exact-gradient calls
	FedRecoverOffline   = "unlearn.strategy.fedrecover.offline_fallbacks" // counter: exact calls degraded to estimation
	FedRecoveryTotal    = "unlearn.strategy.fedrecovery.total"            // timer: whole FedRecovery run
	FedEraserTotal      = "unlearn.strategy.federaser.total"              // timer: whole FedEraser calibrated replay
	FedEraserCalibrated = "unlearn.strategy.federaser.calibrated_updates" // counter: fresh client updates rescaled to stored norms
	PGATotal            = "unlearn.strategy.pga.total"                    // timer: whole PGA erasure + recovery fine-tune
	PGAAscentSteps      = "unlearn.strategy.pga.ascent_steps"             // counter: projected-gradient-ascent steps taken
	NoTTotal            = "unlearn.strategy.not.total"                    // timer: whole NoT negation + recovery fine-tune

	// baselines — storage accounting for the full-gradient tier (a
	// storage regime, not a strategy, so it keeps its own namespace).
	FullHistoryBytes = "baselines.fullhistory.bytes" // counter: float64 gradient bytes stored

	// verify — the forgetting-verification suite (internal/verify):
	// shadow-model membership inference, backdoor retention and
	// relearn-time scoring of unlearned models (DESIGN.md §17).
	VerifySuite         = "verify.suite"           // timer: NewSuite (shadow training + attack fit + before scores)
	VerifyShadowTrain   = "verify.shadow.train"    // timer: one shadow model's training run
	VerifyShadowModels  = "verify.shadow.models"   // counter: shadow models trained
	VerifyAttackFit     = "verify.mia.fit"         // timer: logistic attack fit over shadow features
	VerifyMIAEvals      = "verify.mia.evaluations" // counter: membership-advantage evaluations
	VerifyRelearnRounds = "verify.relearn.rounds"  // counter: relearn rounds executed across scores
	VerifyScores        = "verify.scores"          // counter: forgetting scores produced
	VerifyScoreTime     = "verify.score"           // timer: one Score call (MIA + backdoor + relearn)
)
