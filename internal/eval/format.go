package eval

import (
	"fmt"
	"io"
	"strings"

	"gpsdl/internal/scenario"
)

// FormatTable51 renders the Table 5.1 dataset-specification table.
func FormatTable51(w io.Writer, stations []scenario.Station) error {
	var sb strings.Builder
	sb.WriteString("Table 5.1. Data Set Specifications\n")
	sb.WriteString("No.  Site ID  ECEF Coordinates (X, Y, Z)(m)                     Date of Collection  Clock Correction Type\n")
	for i, s := range stations {
		fmt.Fprintf(&sb, "%-4d %-8s (%.3f, %.3f, %.3f)  %-19s %s\n",
			i+1, s.ID, s.Pos.X, s.Pos.Y, s.Pos.Z, s.Date, s.Clock)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// FormatFig51 renders one panel of Fig. 5.1 (execution time rates θ vs
// number of satellites) for a sweep result.
func FormatFig51(w io.Writer, r *Result) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5.1 — Execution Time Comparison, data set %s (%s clock)\n",
		r.Station.ID, r.Station.Clock)
	sb.WriteString("sats  tau_NR(ns)  tau_DLO(ns)  tau_DLG(ns)  theta_DLO(%)  theta_DLG(%)\n")
	for _, row := range r.Rows {
		if row.Epochs == 0 {
			fmt.Fprintf(&sb, "%-5d (%s)\n", row.M, emptyRow(row))
			continue
		}
		fmt.Fprintf(&sb, "%-5d %-11.0f %-12.0f %-12.0f %-13.1f %-12.1f\n",
			row.M, row.NR.MeanNanos, row.DLO.MeanNanos, row.DLG.MeanNanos,
			row.TimeRateDLO(), row.TimeRateDLG())
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// FormatFig52 renders one panel of Fig. 5.2 (accuracy rates η vs number of
// satellites) for a sweep result.
func FormatFig52(w io.Writer, r *Result) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5.2 — Accuracy Comparison, data set %s (%s clock)\n",
		r.Station.ID, r.Station.Clock)
	sb.WriteString("sats  d_NR(m)  d_DLO(m)  d_DLG(m)  eta_DLO(%)  eta_DLG(%)\n")
	for _, row := range r.Rows {
		if row.Epochs == 0 {
			fmt.Fprintf(&sb, "%-5d (%s)\n", row.M, emptyRow(row))
			continue
		}
		fmt.Fprintf(&sb, "%-5d %-8.3f %-9.3f %-9.3f %-11.1f %-10.1f\n",
			row.M, row.NR.MeanError, row.DLO.MeanError, row.DLG.MeanError,
			row.AccuracyRateDLO(), row.AccuracyRateDLG())
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// emptyRow says why a row solved no epoch: calibration consumed every
// epoch with m satellites in view, or none of the measurement epochs had
// m satellites in view (or passed the GDOP screen).
func emptyRow(row Row) string {
	if row.Candidates() == 0 {
		return "no epochs left after calibration"
	}
	return fmt.Sprintf("no epochs with %d satellites in view", row.M)
}
