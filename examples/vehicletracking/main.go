// Vehicle tracking: the paper's motivating scenario — "in many application
// systems, the object to be positioned may move at a high speed. It is
// then necessary to reduce the computation time overhead in order to
// provide real-time response" (Section 1).
//
// A receiver circles a track at aircraft speed while NR and DLG position
// it each epoch; the example reports tracking accuracy and the work
// each fix costs, counted as solver iterations (the timed θ is
// gpsbench -fig 5.1's).
//
//	go run ./examples/vehicletracking
//	go run ./examples/vehicletracking -speed 300 -radius 5000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/eval"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vehicletracking:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vehicletracking", flag.ContinueOnError)
	var (
		speed    = fs.Float64("speed", 250, "vehicle speed in m/s")
		radius   = fs.Float64("radius", 10000, "track radius in meters")
		duration = fs.Float64("duration", 600, "tracking time in seconds")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	station, err := scenario.StationByID("SRZN")
	if err != nil {
		return err
	}
	traj := scenario.CircularTrajectory(station.Pos, *radius, *speed)
	gen := scenario.NewGenerator(station, scenario.DefaultConfig(11), scenario.WithTrajectory(traj))
	fmt.Fprintf(w, "vehicle on a %.1f km circle at %.0f m/s near %s\n\n", *radius/1000, *speed, station.ID)

	pred := eval.DefaultPredictor(station.Clock)
	var nr core.NRSolver
	dlg := core.NewDLGSolver(pred)

	type trackStats struct {
		sumErr       float64
		fixes, iters int
	}
	var nrStats, dlgStats trackStats
	for t := 0.0; t < *duration; t++ {
		epoch, err := gen.EpochAt(t)
		if err != nil {
			return err
		}
		obs := make([]core.Observation, 0, len(epoch.Obs))
		for _, o := range epoch.Obs {
			obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
		}
		truth := gen.TruthPosition(t)

		nrSol, nrErr := nr.Solve(t, obs)
		if nrErr == nil {
			nrStats.sumErr += nrSol.Pos.DistanceTo(truth)
			nrStats.iters += nrSol.Iterations
			nrStats.fixes++
			pred.Observe(clock.Fix{T: t, Bias: nrSol.ClockBias / geo.SpeedOfLight})
		}

		dlgSol, dlgErr := dlg.Solve(t, obs)
		if dlgErr == nil {
			dlgStats.sumErr += dlgSol.Pos.DistanceTo(truth)
			dlgStats.iters += dlgSol.Iterations
			dlgStats.fixes++
		}
	}
	if nrStats.fixes == 0 || dlgStats.fixes == 0 {
		return fmt.Errorf("no fixes produced (NR %d, DLG %d)", nrStats.fixes, dlgStats.fixes)
	}
	meanIters := func(s trackStats) float64 { return float64(s.iters) / float64(s.fixes) }
	report := func(name string, s trackStats) {
		fmt.Fprintf(w, "%-4s %6d fixes  mean error %6.2f m  mean iterations %.2f\n",
			name, s.fixes, s.sumErr/float64(s.fixes), meanIters(s))
	}
	report("NR", nrStats)
	report("DLG", dlgStats)
	fmt.Fprintln(w, "(DLG produces no fixes during its ~60 s clock-predictor calibration window.)")
	fmt.Fprintf(w, "\nDLG solves each fix directly (%.2f iterations per fix, NR %.2f): the paper's\n",
		meanIters(dlgStats), meanIters(nrStats))
	fmt.Fprintln(w, "headline claim. gpsbench -fig 5.1 times both (θ = τ_DLG / τ_NR).")
	return nil
}
