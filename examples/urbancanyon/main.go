// Urban canyon: buildings occlude whole azimuth sectors, often leaving
// fewer than the 4 satellites every standard algorithm needs. This
// example drives a day of street-canyon epochs and shows how coverage
// recovers when a well-calibrated clock predictor unlocks 3-satellite
// fixes (paper §2, ref [30]: "GPS navigation using three satellites and a
// precise clock").
//
//	go run ./examples/urbancanyon
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/eval"
	"gpsdl/internal/geo"
	"gpsdl/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "urbancanyon:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if err := flag.NewFlagSet("urbancanyon", flag.ContinueOnError).Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	station, err := scenario.StationByID("SRZN")
	if err != nil {
		return err
	}
	// A north-south street: ±25° openings along the axis, 55° roofline.
	mask := scenario.CanyonMask(0, 25*math.Pi/180, 55*math.Pi/180)
	canyon := scenario.NewGenerator(station, scenario.DefaultConfig(9),
		scenario.WithVisibility(mask))
	// The clock predictor calibrates on open-sky epochs (e.g. before the
	// vehicle enters the canyon).
	open := scenario.NewGenerator(station, scenario.DefaultConfig(9))
	pred := eval.DefaultPredictor(station.Clock)
	var nr core.NRSolver
	for t := 0.0; t < 120; t++ {
		epoch, err := open.EpochAt(t)
		if err != nil {
			return err
		}
		if sol, err := nr.Solve(t, adapt(epoch)); err == nil {
			pred.Observe(clock.Fix{T: t, Bias: sol.ClockBias / geo.SpeedOfLight})
		}
	}

	dlg := core.NewDLGSolver(pred)
	tri := &core.TriSatSolver{Predictor: pred}
	type acc struct {
		fixes int
		sum   float64
	}
	var (
		epochs, under3, exactly3 int
		dlgAcc, triAcc, bothAcc  acc
	)
	for t := 120.0; t < 86400; t += 30 {
		epoch, err := canyon.EpochAt(t)
		if err != nil {
			return err
		}
		epochs++
		n := len(epoch.Obs)
		if n < 3 {
			under3++
			continue
		}
		obs := adapt(epoch)
		if n >= 4 {
			if sol, err := dlg.Solve(t, obs); err == nil {
				dlgAcc.fixes++
				dlgAcc.sum += sol.Pos.DistanceTo(station.Pos)
			}
		} else {
			exactly3++
		}
		// TriSat runs whenever >= 3 are visible.
		if sol, err := tri.Solve(t, obs); err == nil {
			triAcc.fixes++
			triAcc.sum += sol.Pos.DistanceTo(station.Pos)
			if n >= 3 {
				bothAcc.fixes++
				bothAcc.sum += sol.Pos.DistanceTo(station.Pos)
			}
		}
	}
	fmt.Fprintf(w, "street canyon, %d epochs over 24 h:\n", epochs)
	fmt.Fprintf(w, "  epochs with <3 satellites        %5d (no fix possible)\n", under3)
	fmt.Fprintf(w, "  epochs with exactly 3            %5d (4-sat algorithms blind)\n", exactly3)
	fmt.Fprintf(w, "  DLG fixes (needs >= 4)           %5d, mean error %6.1f m\n",
		dlgAcc.fixes, mean(dlgAcc))
	fmt.Fprintf(w, "  TriSat fixes (needs 3 + clock)   %5d, mean error %6.1f m\n",
		triAcc.fixes, mean(triAcc))
	gain := float64(triAcc.fixes-dlgAcc.fixes) / float64(epochs) * 100
	fmt.Fprintf(w, "\nclock-aided 3-satellite positioning recovers %.0f%% more epochs;\n", gain)
	fmt.Fprintln(w, "accuracy is worse (weak geometry), but a degraded fix beats none.")
	return nil
}

func mean(a struct {
	fixes int
	sum   float64
}) float64 {
	if a.fixes == 0 {
		return 0
	}
	return a.sum / float64(a.fixes)
}

func adapt(e scenario.Epoch) []core.Observation {
	obs := make([]core.Observation, 0, len(e.Obs))
	for _, o := range e.Obs {
		obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
	}
	return obs
}
