package engine

import (
	"time"

	"morphstream/internal/metrics"
	"morphstream/internal/telemetry"
	"morphstream/internal/wal"
)

// PipelineStats is the engine's uniform observability surface: the
// plan/execute overlap meter reading plus cumulative totals across every
// punctuation processed so far. It is a read-only view over the engine's
// telemetry registry — the single store every per-batch count and stage
// duration is written to — so PipelineStats is safe to call concurrently
// from any goroutine (the admin server's /statusz scrapes it mid-traffic);
// each field is individually monotonic.
//
// When several engines share one registry (WithTelemetry), the registry
// totals are what PipelineStats reports, exactly as /metrics does; the
// overlap meter and the Ingest* ring readings stay per engine.
type PipelineStats struct {
	metrics.OverlapStats

	// Batches is the number of punctuations processed since New. Unlike
	// Engine.Batches, it excludes batches restored by durability recovery.
	Batches int64
	// Events counts the input events planned and executed across all
	// batches (BatchResult.Events, summed); Dropped counts the ingested
	// events PreProcess discarded instead, which Events excludes.
	Events  int64
	Dropped int64
	// Committed and Aborted count state transactions.
	Committed int64
	Aborted   int64
	// AbortRounds, Redos and OpsExecuted aggregate the executor's abort
	// machinery and operation counts (exec.Result, summed over batches).
	AbortRounds int64
	Redos       int64
	OpsExecuted int64
	// Steals and Parks aggregate the executor's work-stealing and
	// spin-then-park activity (exec.Result.Steals/Parks, summed).
	Steals int64
	Parks  int64
	// FusedOps counts operations executed as members of fused vertices
	// (tpg.Props.FusedOps, summed).
	FusedOps int64

	// PlanElapsed and ExecElapsed are the cumulative planning-stage and
	// execution-phase times (BatchResult.PlanElapsed/Elapsed, summed); in
	// the pipeline they overlap, which is what OverlapStats quantifies.
	PlanElapsed time.Duration
	ExecElapsed time.Duration
	// CommitElapsed is the cumulative WAL commit-hook time (dirty-set sweep
	// + record encode + append + fsync); zero with durability off.
	CommitElapsed time.Duration
	// DurableBatches counts delivered batches whose results carried
	// Durable=true; WALLastSeq and WALDiffChain are the log's sequence
	// watermark and incremental-snapshot chain length.
	DurableBatches int64
	WALLastSeq     int64
	WALDiffChain   int
	// WALErrors counts WAL failures: the first one is sticky, so after it
	// batches stop logging and Close returns it.
	WALErrors int64

	// IngestDepth and IngestCapacity are the submission ring's approximate
	// occupancy and size (zero when the pipeline never ran); IngestStalls
	// counts producer blocks on a full ring — the pipeline's backpressure
	// made visible.
	IngestDepth    int
	IngestCapacity int
	IngestStalls   int64
}

// engineInstruments are the engine's series on its registry (the caller's,
// or a private one): the only copy of every per-batch count, stage duration
// and event latency. The WAL keeps its watermark gauges current itself; the
// engine holds them only to read.
type engineInstruments struct {
	eventsPlanned *telemetry.Counter
	eventsDropped *telemetry.Counter
	batchesSealed *telemetry.Counter
	txnCommitted  *telemetry.Counter
	txnAborted    *telemetry.Counter
	abortRounds   *telemetry.Counter
	redos         *telemetry.Counter
	fusedOps      *telemetry.Counter
	opsExecuted   *telemetry.Counter
	steals        *telemetry.Counter
	parks         *telemetry.Counter
	durable       *telemetry.Counter
	walErrors     *telemetry.Counter
	planNS        *telemetry.Histogram
	execNS        *telemetry.Histogram
	commitNS      *telemetry.Histogram
	batchEvents   *telemetry.Histogram
	eventLatency  *telemetry.Histogram
	walLastSeq    *telemetry.Gauge
	walChainLen   *telemetry.Gauge
}

// setupTelemetry registers the engine's series on cfg.Telemetry (non-nil:
// New supplies a private registry when the caller passes none). The
// per-batch series live in e.inst; scrape-time views (ring depth, overlap)
// read the pipeline through callbacks.
func (e *Engine) setupTelemetry() {
	reg := e.cfg.Telemetry
	e.inst = engineInstruments{
		eventsPlanned: reg.Counter("morph_engine_events_planned_total", "Input events planned into TPG batches."),
		eventsDropped: reg.Counter("morph_engine_events_dropped_total", "Ingested events discarded by PreProcess failures."),
		batchesSealed: reg.Counter("morph_engine_batches_sealed_total", "Punctuation batches sealed and executed."),
		txnCommitted:  reg.Counter("morph_engine_txn_committed_total", "State transactions committed."),
		txnAborted:    reg.Counter("morph_engine_txn_aborted_total", "State transactions aborted."),
		abortRounds:   reg.Counter("morph_engine_abort_rounds_total", "Abort/rollback machinery invocations."),
		redos:         reg.Counter("morph_engine_redos_total", "Operation re-executions caused by rollback."),
		fusedOps:      reg.Counter("morph_engine_fused_ops_total", "Operations executed inside fused TPG vertices."),
		opsExecuted:   reg.Counter("morph_exec_ops_total", "Successful first-run operation executions."),
		steals:        reg.Counter("morph_exec_steals_total", "Units popped from a non-home shard ring."),
		parks:         reg.Counter("morph_exec_parks_total", "Spin-budget expiries that put a worker to sleep."),
		durable:       reg.Counter("morph_engine_durable_batches_total", "Delivered batches whose WAL record was appended first."),
		walErrors:     reg.Counter("morph_wal_errors_total", "WAL failures that stopped batch logging."),
		planNS:        reg.Histogram("morph_engine_plan_ns", "Per-batch planning-stage time (ns)."),
		execNS:        reg.Histogram("morph_engine_exec_ns", "Per-batch execution-phase time (ns)."),
		commitNS:      reg.Histogram("morph_engine_commit_ns", "Per-batch WAL commit-hook time (ns)."),
		batchEvents:   reg.Histogram("morph_engine_batch_events", "Input events per sealed batch."),
		eventLatency:  reg.Histogram("morph_engine_event_latency_ns", "Per-event latency from arrival to post-processing (ns)."),
	}
	e.inst.walLastSeq, e.inst.walChainLen = wal.WatermarkGauges(reg)
	reg.GaugeFunc("morph_ingest_ring_depth", "Approximate submission-ring occupancy.", func() int64 {
		if p := e.pipe.Load(); p != nil {
			return int64(p.ring.len())
		}
		return 0
	})
	reg.GaugeFunc("morph_ingest_ring_capacity", "Submission-ring capacity.", func() int64 {
		if p := e.pipe.Load(); p != nil {
			return int64(len(p.ring.slots))
		}
		return 0
	})
	reg.CounterFunc("morph_ingest_stalls_total", "Producer blocks on a full submission ring (backpressure).", func() int64 {
		if p := e.pipe.Load(); p != nil {
			return p.ring.stalls.Load()
		}
		return 0
	})
	reg.CounterFunc("morph_engine_plan_busy_ns_total", "Cumulative planner-stage busy time.", func() int64 {
		return int64(e.overlap.Stats().PlanBusy)
	})
	reg.CounterFunc("morph_engine_exec_busy_ns_total", "Cumulative executor-stage busy time.", func() int64 {
		return int64(e.overlap.Stats().ExecBusy)
	})
	reg.CounterFunc("morph_engine_overlap_ns_total", "Cumulative time both pipeline stages were busy.", func() int64 {
		return int64(e.overlap.Stats().Overlap)
	})
}

// recordBatch folds one delivered batch into the registry, writing each
// fact once. Runs on the executor stage (one goroutine), once per
// punctuation — never on the per-operation hot path.
func (e *Engine) recordBatch(res *BatchResult, commitTime time.Duration) {
	in := &e.inst
	in.eventsPlanned.Add(int64(res.Events))
	in.eventsDropped.Add(int64(res.Dropped))
	in.batchesSealed.Inc()
	in.txnCommitted.Add(int64(res.Committed))
	in.txnAborted.Add(int64(res.Aborted))
	in.abortRounds.Add(int64(res.AbortRounds))
	in.redos.Add(int64(res.Redos))
	in.fusedOps.Add(int64(res.Props.FusedOps))
	in.opsExecuted.Add(int64(res.OpsExecuted))
	in.steals.Add(int64(res.Steals))
	in.parks.Add(int64(res.Parks))
	if res.Durable {
		in.durable.Inc()
	}
	in.planNS.Record(int64(res.PlanElapsed))
	in.execNS.Record(int64(res.Elapsed))
	if commitTime > 0 {
		in.commitNS.Record(int64(commitTime))
	}
	in.batchEvents.Record(int64(res.Events))
}

// PipelineStats reads the engine's observability surface off the registry,
// plus the overlap meter and the ingest ring. Safe to call from any
// goroutine at any time.
func (e *Engine) PipelineStats() PipelineStats {
	in := &e.inst
	s := PipelineStats{
		OverlapStats:   e.overlap.Stats(),
		Batches:        in.batchesSealed.Value(),
		Events:         in.eventsPlanned.Value(),
		Dropped:        in.eventsDropped.Value(),
		Committed:      in.txnCommitted.Value(),
		Aborted:        in.txnAborted.Value(),
		AbortRounds:    in.abortRounds.Value(),
		Redos:          in.redos.Value(),
		OpsExecuted:    in.opsExecuted.Value(),
		Steals:         in.steals.Value(),
		Parks:          in.parks.Value(),
		FusedOps:       in.fusedOps.Value(),
		PlanElapsed:    time.Duration(in.planNS.Snapshot().Sum),
		ExecElapsed:    time.Duration(in.execNS.Snapshot().Sum),
		CommitElapsed:  time.Duration(in.commitNS.Snapshot().Sum),
		DurableBatches: in.durable.Value(),
		WALLastSeq:     in.walLastSeq.Value(),
		WALDiffChain:   int(in.walChainLen.Value()),
		WALErrors:      in.walErrors.Value(),
	}
	if p := e.pipe.Load(); p != nil {
		s.IngestDepth = p.ring.len()
		s.IngestCapacity = len(p.ring.slots)
		s.IngestStalls = p.ring.stalls.Load()
	}
	return s
}
