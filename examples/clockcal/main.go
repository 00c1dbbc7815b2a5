// Clock calibration: the paper's Section 4.2/5.2.2 machinery in isolation.
// Shows the two receiver-clock disciplines of Table 5.1 (steering and
// threshold), the linear predictor ε̂ᴿ = c(D + r·tₑ) tracking them from
// noisy NR-style fixes, reset detection on the threshold clock, and the
// Kalman-filter extension (Section 6) side by side.
//
//	go run ./examples/clockcal
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"gpsdl/internal/clock"
	"gpsdl/internal/geo"
)

// fixNoise is the quality of an NR-derived clock fix (~15 ns ≈ 4.5 m).
const fixNoise = 15e-9

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clockcal:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if err := flag.NewFlagSet("clockcal", flag.ContinueOnError).Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	steering := &clock.SteeringModel{
		Offset:    30e-9,
		Amplitude: 4e-9,
		Period:    7200,
		Jitter:    1e-9,
	}
	threshold := &clock.ThresholdModel{
		Offset:    2e-5,
		Drift:     1e-7, // 0.1 ppm quartz
		Threshold: 1e-3, // 1 ms receiver slew
	}

	fmt.Fprintln(w, "=== steering clock (CORS discipline: bias held near a constant) ===")
	if err := track(w, "steering", steering, newSteeringPredictors()); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n=== threshold clock (free-running quartz, 1 ms reset slews) ===")
	resets := threshold.ResetTimes(0, 86400)
	fmt.Fprintf(w, "truth resets over 24 h: %d (every %.0f s)\n", len(resets), 1e-3/1e-7)
	return track(w, "threshold", threshold, newThresholdPredictors())
}

type arm struct {
	name string
	p    clock.Predictor
}

func newSteeringPredictors() []arm {
	lin := clock.NewLinearPredictor(60, 0)
	lin.DriftFloor = 1e-9
	lin.Refit = true
	lin.OutlierTol = 1e-6
	return []arm{
		{"linear (paper 4-3)", lin},
		{"kalman [12][33]", clock.NewKalmanPredictor(0)},
	}
}

func newThresholdPredictors() []arm {
	lin := clock.NewLinearPredictor(60, 1e-4)
	lin.Refit = true
	lin.RoundJumpTo = 1e-3
	lin.OutlierTol = 1e-6
	return []arm{
		{"linear (paper 4-3)", lin},
		{"kalman [12][33]", clock.NewKalmanPredictor(1e-4)},
	}
}

// track feeds a day of noisy fixes to each predictor and reports the
// range-domain prediction error it would inject into DLO/DLG.
func track(w io.Writer, label string, model clock.Model, arms []arm) error {
	rng := rand.New(rand.NewSource(3))
	type acc struct {
		sum, worst float64
		n          int
	}
	accs := make([]acc, len(arms))
	const stepSec = 10.0
	for i := 0; i <= int(86400/stepSec); i++ {
		t := float64(i) * stepSec
		fix := clock.Fix{T: t, Bias: model.BiasAt(t) + fixNoise*rng.NormFloat64()}
		for j, a := range arms {
			a.p.Observe(fix)
			// Evaluate prediction at the *next* epoch (what DLO/DLG use).
			pt := t + stepSec/2
			got, err := a.p.PredictBias(pt)
			if err != nil {
				continue // warming up
			}
			e := math.Abs(got-model.BiasAt(pt)) * geo.SpeedOfLight
			accs[j].sum += e
			accs[j].n++
			if e > accs[j].worst {
				accs[j].worst = e
			}
		}
	}
	for j, a := range arms {
		if accs[j].n == 0 {
			return fmt.Errorf("%s/%s produced no predictions", label, a.name)
		}
		fmt.Fprintf(w, "  %-20s mean range error %7.3f m, worst %8.3f m over 24 h\n",
			a.name, accs[j].sum/float64(accs[j].n), accs[j].worst)
		if lp, ok := a.p.(*clock.LinearPredictor); ok {
			d, r, err := lp.Coefficients()
			if err == nil {
				fmt.Fprintf(w, "  %-20s fitted D = %.3g s, r = %.3g s/s, resets detected: %d\n",
					"", d, r, lp.Recalibrations)
			}
		}
	}
	return nil
}
