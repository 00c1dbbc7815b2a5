// Quickstart: generate one epoch of GPS observations at a Table 5.1
// station and position the receiver with all four algorithms.
//
//	go run ./examples/quickstart
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if err := flag.NewFlagSet("quickstart", flag.ContinueOnError).Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	// 1. Pick a station from the paper's Table 5.1 and build a generator.
	station, err := scenario.StationByID("YYR1")
	if err != nil {
		return err
	}
	gen := scenario.NewGenerator(station, scenario.DefaultConfig(42))
	fmt.Fprintf(w, "station %s at %v (%s clock)\n\n", station.ID, station.Pos, station.Clock)

	// 2. Calibrate the clock predictor from NR fixes over the first
	//    minute (Section 5.2.2 of the paper).
	pred := eval.DefaultPredictor(station.Clock)
	var nr core.NRSolver
	for t := 0.0; t < 60; t++ {
		epoch, err := gen.EpochAt(t)
		if err != nil {
			return err
		}
		sol, err := nr.Solve(t, adapt(epoch))
		if err != nil {
			return err
		}
		pred.Observe(clock.Fix{T: t, Bias: sol.ClockBias / geo.SpeedOfLight})
	}

	// 3. Solve a half-minute of epochs with each algorithm and compare
	//    average accuracy (single epochs vary a lot: satellite-coherent
	//    atmospheric biases make some epochs 3-5x worse than the mean).
	solvers := []core.Solver{
		&core.NRSolver{},        // the classic iterative baseline
		core.NewDLOSolver(pred), // direct linearization + OLS
		core.NewDLGSolver(pred), // direct linearization + GLS
		core.BancroftSolver{},   // classic algebraic direct method
	}
	const (
		start  = 120.0
		epochs = 30
	)
	sums := make([]float64, len(solvers))
	iters := make([]int, len(solvers))
	var obs []core.Observation
	for i := 0; i < epochs; i++ {
		t := start + float64(i)
		epoch, err := gen.EpochAt(t)
		if err != nil {
			return err
		}
		obs = adapt(epoch)
		for j, s := range solvers {
			sol, err := s.Solve(t, obs)
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name(), err)
			}
			sums[j] += sol.Pos.DistanceTo(station.Pos)
			iters[j] += sol.Iterations
		}
	}
	fmt.Fprintf(w, "%d satellites in view; mean over %d epochs:\n\n", len(obs), epochs)
	fmt.Fprintf(w, "%-10s %-14s %s\n", "solver", "mean err (m)", "mean iterations")
	for j, s := range solvers {
		fmt.Fprintf(w, "%-10s %-14.3f %.1f\n",
			s.Name(), sums[j]/epochs, float64(iters[j])/epochs)
	}

	// 4. Geometry quality of the epoch.
	dop, err := core.DOPFromObs(station.Pos, obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ngeometry: GDOP %.2f, PDOP %.2f, HDOP %.2f, VDOP %.2f\n",
		dop.GDOP, dop.PDOP, dop.HDOP, dop.VDOP)

	// 5. What a receiver would report as its own accuracy: the post-fit
	//    residual scatter scaled by the geometry.
	var nrAgain core.NRSolver
	sol, err := nrAgain.Solve(start+epochs-1, obs)
	if err != nil {
		return err
	}
	est, err := core.EstimateAccuracy(sol, obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "formal accuracy (last NR fix): sigma %.2f m, horizontal %.2f m, vertical %.2f m\n",
		est.SigmaUERE, est.Horizontal, est.Vertical)
	return nil
}

// adapt converts scenario observations to solver inputs.
func adapt(e scenario.Epoch) []core.Observation {
	obs := make([]core.Observation, 0, len(e.Obs))
	for _, o := range e.Obs {
		obs = append(obs, core.Observation{
			Pos:         o.Pos,
			Pseudorange: o.Pseudorange,
			Elevation:   o.Elevation,
		})
	}
	return obs
}
