// The /debug/status surface: one consolidated operator view merging
// epoch-loop liveness, the engine's per-shard health census,
// checkpoint/drain state, and — when the quality layer is on — SLO
// verdicts, error budgets, the fleet quality digest, and the worst
// sessions. JSON by default; ?format=text renders a terminal-friendly
// table for a human on a box with nothing but curl.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"text/tabwriter"

	"gpsdl/internal/cluster"
	"gpsdl/internal/engine"
	"gpsdl/internal/quality"
)

// statusResponse is the /debug/status JSON body.
type statusResponse struct {
	// Health is the same liveness block /healthz serves (status, fix
	// staleness, backpressure, shard census, checkpoint, drain).
	Health healthStatus `json:"health"`
	// Quality is the engine's consolidated quality/SLO verdict; absent
	// with the quality layer disabled.
	Quality *engine.FleetQuality `json:"quality,omitempty"`
	// Cluster is the serving-tier block (-wire): hosted sessions with
	// stream heads, handoff/adoption counters, and hub fan-out stats.
	Cluster *cluster.NodeStatus `json:"cluster,omitempty"`
}

// statusTopDefault bounds the worst-sessions ranking when ?top= is
// absent.
const statusTopDefault = 5

// statusHandler serves /debug/status. Query parameters: top=K bounds
// the worst-sessions list; format=text renders a table instead of JSON.
func (st *serverTelemetry) statusHandler(w http.ResponseWriter, r *http.Request) {
	topK := statusTopDefault
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, fmt.Sprintf("bad top=%q: want a positive integer", v), http.StatusBadRequest)
			return
		}
		topK = n
	}
	resp := statusResponse{}
	resp.Health, _ = st.health.status()
	if st.eng != nil && st.eng.QualityEnabled() {
		resp.Quality = st.eng.Quality(topK)
	}
	if st.node != nil {
		ns := st.node.Status()
		resp.Cluster = &ns
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeStatusText(w, &resp)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// fmtAge renders a seconds value that uses -1 for "never".
func fmtAge(s float64) string {
	if s < 0 {
		return "never"
	}
	return fmt.Sprintf("%.1fs", s)
}

// fmtQ renders a possibly-NaN digest field to a fixed width.
func fmtQ(f quality.Float, format string) string {
	v := float64(f)
	if v != v {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// writeStatusText renders the status as aligned text tables.
func writeStatusText(w http.ResponseWriter, resp *statusResponse) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	h := &resp.Health
	fmt.Fprintf(tw, "status\t%s\n", h.Status)
	fmt.Fprintf(tw, "uptime\t%.1fs\n", h.UptimeSeconds)
	fmt.Fprintf(tw, "epochs\t%d\n", h.Epochs)
	fmt.Fprintf(tw, "fixes\t%d\n", h.Fixes)
	fmt.Fprintf(tw, "last fix\t%s ago\n", fmtAge(h.LastFixAgeSeconds))
	fmt.Fprintf(tw, "clients\t%d\tdrops\t%d\n", h.Clients, h.Drops)
	if h.Draining {
		fmt.Fprintf(tw, "draining\ttrue\n")
	}
	if h.Checkpoint != nil {
		fmt.Fprintf(tw, "checkpoint\t%s\tepoch %d\tsaved %s ago\n",
			h.Checkpoint.Path, h.Checkpoint.Epoch, fmtAge(h.Checkpoint.AgeSeconds))
	}
	if h.Restore != nil {
		line := h.Restore.Outcome
		if h.Restore.Detail != "" {
			line += " (" + h.Restore.Detail + ")"
		}
		fmt.Fprintf(tw, "restore\t%s\tsessions %d\tepoch %d\n",
			line, h.Restore.Sessions, h.Restore.Epoch)
	}
	if c := resp.Cluster; c != nil {
		fmt.Fprintf(tw, "cluster\t%d engines\thandoffs %d\tadopted %d\trestore failures %d\n",
			c.Engines, c.Handoffs, c.AdoptedSessions, c.RestoreFailures)
		fmt.Fprintf(tw, "hub\t%d sessions\t%d subscribers\t%d published\t%d replayed\t%d evicted\n",
			c.Hub.Sessions, c.Hub.Subscribers, c.Hub.Published, c.Hub.Replayed, c.Hub.Evicted)
	}
	if len(h.Shards) > 0 {
		fmt.Fprintf(tw, "\nSHARD\tHEALTHY\tDEGRADED\tCOASTING\tQUARANT\tFAILED\tBREAKER\tPANICS\tRESTARTS\n")
		for _, sh := range h.Shards {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				sh.Shard, sh.Healthy, sh.Degraded, sh.Coasting,
				sh.Quarantined, sh.Failed, sh.BreakerOpen, sh.Panics, sh.Restarts)
		}
	}
	q := resp.Quality
	if q == nil || !q.Enabled {
		fmt.Fprintf(tw, "\nquality\tdisabled\n")
		return
	}
	fmt.Fprintf(tw, "\nslo verdict\t%s\n", q.Worst)
	fmt.Fprintf(tw, "\nOBJECTIVE\tSTATE\tFAST BURN\tSLOW BURN\tBUDGET LEFT\tBAD/WINDOW\n")
	for _, o := range q.Objectives {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.0f%%\t%d/%d\n",
			o.Name, o.State, o.FastBurn, o.SlowBurn,
			100*o.BudgetRemaining, o.BadSlow, o.DenSlow)
	}
	d := &q.Digest
	fmt.Fprintf(tw, "\nfleet window\t%d samples\n", d.Count)
	fmt.Fprintf(tw, "availability\t%s\tchi2 pass\t%s\texcluded\t%s\n",
		fmtQ(d.Availability, "%.4f"), fmtQ(d.Chi2PassRate, "%.4f"), fmtQ(d.ExcludedRate, "%.4f"))
	fmt.Fprintf(tw, "rms p50/p95/p99\t%s/%s/%s m\tmean\t%s m\n",
		fmtQ(d.RMSP50, "%.2f"), fmtQ(d.RMSP95, "%.2f"), fmtQ(d.RMSP99, "%.2f"), fmtQ(d.RMSMean, "%.2f"))
	fmt.Fprintf(tw, "pdop/hdop mean\t%s/%s\tclock innov mean/max\t%s/%s m\n",
		fmtQ(d.PDOPMean, "%.2f"), fmtQ(d.HDOPMean, "%.2f"),
		fmtQ(d.ClockMean, "%.2f"), fmtQ(d.ClockMax, "%.2f"))
	if len(q.Sessions) > 0 {
		fmt.Fprintf(tw, "\nWORST\tSTATE\tRMS P99\tAVAIL\tCHI2\n")
		for _, s := range q.Sessions {
			fmt.Fprintf(tw, "recv %d\t%s\t%s\t%s\t%s\n",
				s.Receiver, s.Worst, fmtQ(s.Digest.RMSP99, "%.2f"),
				fmtQ(s.Digest.Availability, "%.4f"), fmtQ(s.Digest.Chi2PassRate, "%.4f"))
		}
	}
	if len(q.Shards) > 0 {
		var parts []string
		for _, sq := range q.Shards {
			parts = append(parts, fmt.Sprintf("%d: %s m", sq.Shard, fmtQ(sq.Digest.RMSP99, "%.2f")))
		}
		fmt.Fprintf(tw, "\nshard rms p99\t%s\n", strings.Join(parts, "  "))
	}
}
