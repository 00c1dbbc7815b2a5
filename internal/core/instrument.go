package core

import "gpsdl/internal/telemetry"

// Canonical metric names of the solver-path counters.
const (
	MetricDLGSolves      = "gps_dlg_solves_total"
	MetricDLGFallbacks   = "gps_dlg_fast_fallbacks_total"
	MetricRAIMChecks     = "gps_raim_checks_total"
	MetricRAIMFaults     = "gps_raim_faults_total"
	MetricRAIMExclusions = "gps_raim_exclusions_total"

	MetricDisruptChecks      = "gps_disruption_checks_total"
	MetricDisruptDownweights = "gps_disruption_downweights_total"
)

// GLSMetrics counts which covariance path DLG solves take
// (gps_dlg_solves_total{path="paper"|"fast"}) and how often the
// Sherman-Morrison fast path had to fall back to the dense Cholesky
// route (gps_dlg_fast_fallbacks_total).
type GLSMetrics struct {
	PaperSolves   *telemetry.Counter
	FastSolves    *telemetry.Counter
	FastFallbacks *telemetry.Counter
}

// NewGLSMetrics registers the DLG covariance-path counters. Nil
// registry yields nil.
func NewGLSMetrics(reg *telemetry.Registry) *GLSMetrics {
	if reg == nil {
		return nil
	}
	path := func(v string) telemetry.Label { return telemetry.Label{Key: "path", Value: v} }
	return &GLSMetrics{
		PaperSolves: reg.Counter(MetricDLGSolves, "DLG solves by covariance path.", path("paper")),
		FastSolves:  reg.Counter(MetricDLGSolves, "DLG solves by covariance path.", path("fast")),
		FastFallbacks: reg.Counter(MetricDLGFallbacks,
			"Sherman-Morrison fast-path failures retried through the dense Cholesky route."),
	}
}

// nil-safe recording helpers (m may be nil when telemetry is disabled).

func (m *GLSMetrics) countPath(v DLGVariant) {
	if m == nil {
		return
	}
	if v == VariantFast {
		m.FastSolves.Inc()
	} else {
		m.PaperSolves.Inc()
	}
}

func (m *GLSMetrics) countFallback() {
	if m != nil {
		m.FastFallbacks.Inc()
	}
}

// DisruptionMetrics counts disruption-detector activity: epochs scored
// and satellites down-weighted.
type DisruptionMetrics struct {
	// Checks counts epochs the detector scored (enough satellites, a
	// finite reference).
	Checks *telemetry.Counter
	// Downweights counts satellites whose σ was inflated.
	Downweights *telemetry.Counter
}

// NewDisruptionMetrics registers the disruption-detector counters. Nil
// registry yields nil.
func NewDisruptionMetrics(reg *telemetry.Registry) *DisruptionMetrics {
	if reg == nil {
		return nil
	}
	return &DisruptionMetrics{
		Checks: reg.Counter(MetricDisruptChecks,
			"Epochs scored by the disruption detector."),
		Downweights: reg.Counter(MetricDisruptDownweights,
			"Satellites down-weighted as disruption suspects."),
	}
}

func (m *DisruptionMetrics) countCheck() {
	if m != nil {
		m.Checks.Inc()
	}
}

func (m *DisruptionMetrics) countDownweights(n int) {
	if m != nil && n > 0 {
		m.Downweights.Add(uint64(n))
	}
}

// RAIMMetrics counts integrity-monitoring outcomes.
type RAIMMetrics struct {
	// Checks counts RAIM passes that produced an initial fix.
	Checks *telemetry.Counter
	// Faults counts epochs whose residual statistic exceeded the
	// detection threshold.
	Faults *telemetry.Counter
	// Exclusions counts faults resolved by excluding one satellite.
	Exclusions *telemetry.Counter
}

// NewRAIMMetrics registers the RAIM counters. Nil registry yields nil.
func NewRAIMMetrics(reg *telemetry.Registry) *RAIMMetrics {
	if reg == nil {
		return nil
	}
	return &RAIMMetrics{
		Checks:     reg.Counter(MetricRAIMChecks, "RAIM integrity checks that reached the residual test."),
		Faults:     reg.Counter(MetricRAIMFaults, "Epochs whose residual statistic exceeded the RAIM threshold."),
		Exclusions: reg.Counter(MetricRAIMExclusions, "Faulty satellites excluded and re-solved by RAIM."),
	}
}

func (m *RAIMMetrics) countCheck() {
	if m != nil {
		m.Checks.Inc()
	}
}

func (m *RAIMMetrics) countFault() {
	if m != nil {
		m.Faults.Inc()
	}
}

func (m *RAIMMetrics) countExclusion() {
	if m != nil {
		m.Exclusions.Inc()
	}
}
