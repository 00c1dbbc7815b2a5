package engine

import "gpsdl/internal/telemetry"

// shardMetrics is one shard's instrument set, all labeled shard="N".
// Counters are engine-lifetime totals; the queue-depth gauge samples the
// job channel each time a batch is picked up; the session-state gauges
// track how many of the shard's sessions sit in each health state.
type shardMetrics struct {
	fixes            *telemetry.Counter
	coastFixes       *telemetry.Counter
	solveFailures    *telemetry.Counter
	epochErrors      *telemetry.Counter
	faultEvents      *telemetry.Counter
	solveSeconds     *telemetry.Histogram
	queueDepth       *telemetry.Gauge
	enqueued         *telemetry.Counter
	done             *telemetry.Counter
	aborted          *telemetry.Counter
	skippedTicks     *telemetry.Counter
	healthySessions  *telemetry.Gauge
	degradedSessions *telemetry.Gauge
	coastingSessions *telemetry.Gauge

	// Supervision instruments (PR 5).
	drained             *telemetry.Counter
	panics              *telemetry.Counter
	restarts            *telemetry.Counter
	quarantinedEpochs   *telemetry.Counter
	failedEpochs        *telemetry.Counter
	breakerOpens        *telemetry.Counter
	quarantinedSessions *telemetry.Gauge
	failedSessions      *telemetry.Gauge
	breakerOpenSessions *telemetry.Gauge

	// Quality/SLO instruments (PR 6).
	sloDowngrades *telemetry.Counter
}

func newShardMetrics(reg *telemetry.Registry, shard string) *shardMetrics {
	l := telemetry.Label{Key: "shard", Value: shard}
	return &shardMetrics{
		fixes: reg.Counter("engine_fixes_total",
			"Successful fixes produced", l),
		coastFixes: reg.Counter("engine_coast_fixes_total",
			"Dead-reckoning fixes emitted while coasting on the clock model", l),
		solveFailures: reg.Counter("engine_solve_failures_total",
			"Epochs where every fallback solver failed and no coast was possible", l),
		epochErrors: reg.Counter("engine_epoch_errors_total",
			"Epochs that failed before solving (generation errors)", l),
		faultEvents: reg.Counter("engine_fault_events_total",
			"Fault-injector events applied to this shard's epochs", l),
		solveSeconds: reg.Histogram("engine_solve_seconds",
			"Main-solver latency per fix",
			telemetry.ExponentialBuckets(1e-6, 2, 16), l),
		queueDepth: reg.Gauge("engine_queue_depth",
			"Jobs waiting in the shard queue, sampled at batch pickup", l),
		enqueued: reg.Counter("engine_batches_enqueued_total",
			"Batches handed to the shard queue", l),
		done: reg.Counter("engine_batches_done_total",
			"Batches fully processed", l),
		aborted: reg.Counter("engine_batches_aborted_total",
			"Batches cut short or drained after cancellation", l),
		skippedTicks: reg.Counter("engine_skipped_ticks_total",
			"Paced-mode ticks dropped because the shard queue was full", l),
		healthySessions: reg.Gauge("engine_sessions_healthy",
			"Sessions whose last fix was a clean primary solve", l),
		degradedSessions: reg.Gauge("engine_sessions_degraded",
			"Sessions on a fallback solver, post-exclusion, or suspect fix", l),
		coastingSessions: reg.Gauge("engine_sessions_coasting",
			"Sessions holding position on the clock model", l),
		drained: reg.Counter("engine_batches_drained_total",
			"Batches received after cancellation and returned unprocessed", l),
		panics: reg.Counter("engine_session_panics_total",
			"Panics recovered by the shard supervisor", l),
		restarts: reg.Counter("engine_session_restarts_total",
			"Session restarts performed by the supervisor after a panic", l),
		quarantinedEpochs: reg.Counter("engine_quarantined_epochs_total",
			"Epochs skipped while a session sat in post-panic backoff", l),
		failedEpochs: reg.Counter("engine_failed_epochs_total",
			"Epochs skipped on sessions whose restart budget is exhausted", l),
		breakerOpens: reg.Counter("engine_breaker_opens_total",
			"Circuit-breaker open transitions (K consecutive chain failures)", l),
		quarantinedSessions: reg.Gauge("engine_sessions_quarantined",
			"Sessions in post-panic backoff", l),
		failedSessions: reg.Gauge("engine_sessions_failed",
			"Sessions permanently failed after exhausting the restart budget", l),
		breakerOpenSessions: reg.Gauge("engine_breaker_open_sessions",
			"Sessions whose circuit breaker is currently open", l),
		sloDowngrades: reg.Counter("engine_slo_downgrades_total",
			"Healthy→degraded session transitions forced by a paging SLO", l),
	}
}

// stateGauge maps a session state to its census gauge.
func (m *shardMetrics) stateGauge(st SessionState) *telemetry.Gauge {
	switch st {
	case StateDegraded:
		return m.degradedSessions
	case StateCoasting:
		return m.coastingSessions
	case StateQuarantined:
		return m.quarantinedSessions
	case StateFailed:
		return m.failedSessions
	default:
		return m.healthySessions
	}
}
