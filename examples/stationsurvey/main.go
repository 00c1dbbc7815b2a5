// Station survey: process hours of observations at a CORS-style static
// station — the paper's evaluation workload — and watch the surveyed
// (time-averaged) position converge toward the published coordinates.
//
//	go run ./examples/stationsurvey                # YYR1, 2 hours
//	go run ./examples/stationsurvey -station KYCP -hours 6
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
		fmt.Fprintln(os.Stderr, "stationsurvey:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stationsurvey", flag.ContinueOnError)
	var (
		stationID = fs.String("station", "YYR1", "Table 5.1 station ID")
		hours     = fs.Float64("hours", 2, "survey length in hours")
		step      = fs.Float64("step", 5, "epoch spacing in seconds")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	station, err := scenario.StationByID(*stationID)
	if err != nil {
		return err
	}
	cfg := scenario.DefaultConfig(7)
	cfg.Step = *step
	gen := scenario.NewGenerator(station, cfg)
	fmt.Fprintf(w, "surveying %s (%s clock) for %.1f h at %.0f s epochs\n\n",
		station.ID, station.Clock, *hours, *step)

	pred := eval.DefaultPredictor(station.Clock)
	var nr core.NRSolver
	dlg := core.NewDLGSolver(pred)

	var (
		sum        geo.ECEF
		fixes      int
		sumErr     float64
		worst      float64
		printEvery = int(1800 / *step) // progress twice an hour
	)
	end := *hours * 3600
	i := 0
	for t := 0.0; t < end; t += *step {
		epoch, err := gen.EpochAt(t)
		if err != nil {
			return err
		}
		obs := make([]core.Observation, 0, len(epoch.Obs))
		for _, o := range epoch.Obs {
			obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
		}
		// NR maintains the clock predictor (Section 5.2.2 protocol)...
		nrSol, err := nr.Solve(t, obs)
		if err == nil {
			pred.Observe(clock.Fix{T: t, Bias: nrSol.ClockBias / geo.SpeedOfLight})
		}
		// ...and DLG produces the survey fixes.
		sol, err := dlg.Solve(t, obs)
		if err != nil {
			continue // predictor warming up
		}
		d := sol.Pos.DistanceTo(station.Pos)
		sum = sum.Add(sol.Pos)
		fixes++
		sumErr += d
		if d > worst {
			worst = d
		}
		if i++; i%printEvery == 0 {
			avg := sum.Scale(1 / float64(fixes))
			fmt.Fprintf(w, "t=%5.0f min: %6d fixes, mean epoch error %6.2f m, surveyed position off by %6.3f m\n",
				t/60, fixes, sumErr/float64(fixes), avg.DistanceTo(station.Pos))
		}
	}
	if fixes == 0 {
		return fmt.Errorf("no fixes produced")
	}
	avg := sum.Scale(1 / float64(fixes))
	enu := geo.ToENU(station.Pos, avg)
	fmt.Fprintf(w, "\nfinal survey over %d fixes:\n", fixes)
	fmt.Fprintf(w, "  mean per-epoch error  %8.3f m (worst %.3f m)\n", sumErr/float64(fixes), worst)
	fmt.Fprintf(w, "  surveyed position     %8.3f m from published coordinates\n", avg.DistanceTo(station.Pos))
	fmt.Fprintf(w, "  offset ENU            (%.3f, %.3f, %.3f) m\n", enu.E, enu.N, enu.U)
	lat, lon := avg.ToLLA().Degrees()
	fmt.Fprintf(w, "  geodetic              %.6f°, %.6f°, %.1f m\n", lat, lon, avg.ToLLA().Alt)
	return nil
}
