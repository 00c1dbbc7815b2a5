// Command gpsrun processes a binary dataset from gpsgen with one
// positioning algorithm and prints fix statistics: error distribution,
// iterations, fixes and failures. Its output is deterministic: two runs
// on the same file print the same bytes.
//
// Usage:
//
//	gpsrun -dataset yyr1.bin -solver dlg
//	gpsrun -dataset yyr1.bin -solver nr -sats 6 -epochs 1000
//	gpsrun -dataset yyr1.bin -nmea 5
//
// -nmea N then prints the GGA/RMC sentences a one-session fix engine
// serves over the first N epochs: the same path, and the same bytes, as
// gpsserve -dataset. To re-solve fixes captured by a running server,
// use gpsinspect replay on its flight journal or an incident bundle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/engine"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpsrun:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gpsrun", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "", "path to a binary dataset from gpsgen (required)")
		solver    = fs.String("solver", "dlg", "algorithm: nr, dlo, dlg, bancroft or trisat")
		sats      = fs.Int("sats", 8, "satellites per epoch (4-12)")
		epochs    = fs.Int("epochs", 0, "max epochs to process (0 = all)")
		seed      = fs.Int64("seed", 1, "satellite-selection seed")
		nmeaN     = fs.Int("nmea", 0, "print the fix engine's NMEA GGA/RMC sentences for the first N epochs")
		faults    = fs.String("faults", "", "apply a fault-injection program to the dataset first, e.g. 'step:prn=7,bias=400,from=100;burst:sigma=8'")
		faultSeed = fs.Int64("fault-seed", 1, "fault-injector seed (burst noise stream) for -faults")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *dataset == "" {
		return fmt.Errorf("-dataset is required")
	}
	ds, err := scenario.LoadFile(*dataset)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset %s: station %s (%s clock), %d epochs, %d-%d satellites\n",
		*dataset, ds.Station.ID, ds.Station.Clock, ds.Len(), ds.MinSatCount(), ds.MaxSatCount())
	if *faults != "" {
		prog, err := fault.ParseSpec(*faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		var log []fault.Event
		ds, log = fault.ApplyDataset(ds, prog, *faultSeed)
		byKind := map[string]int{}
		for _, ev := range log {
			byKind[ev.Kind.String()]++
		}
		fmt.Fprintf(w, "faults applied: %s (seed %d): %d events", prog.String(), *faultSeed, len(log))
		for _, k := range []string{"drop", "step", "ramp", "burst", "clockjump", "shrink"} {
			if byKind[k] > 0 {
				fmt.Fprintf(w, " %s=%d", k, byKind[k])
			}
		}
		fmt.Fprintln(w)
	}

	name := strings.ToLower(*solver)
	pred := eval.DefaultPredictor(ds.Station.Clock)
	var s core.Solver
	switch name {
	case "nr":
		s = &core.NRSolver{}
	case "dlo":
		s = &core.DLOSolver{Predictor: pred}
	case "dlg":
		s = &core.DLGSolver{Predictor: pred}
	case "bancroft":
		s = core.BancroftSolver{}
	case "trisat":
		s = &core.TriSatSolver{Predictor: pred}
	default:
		return fmt.Errorf("unknown solver %q", *solver)
	}
	stats, _, err := eval.RunArms(ds, []eval.ArmSpec{{Name: s.Name(), Solver: s, Predictor: predictorFor(s, pred)}},
		eval.Options{M: *sats, MaxEpochs: *epochs, Seed: *seed})
	if err != nil {
		return err
	}
	st := stats[0]
	fmt.Fprintf(w, "%s over %d epochs (m=%d):\n", st.Name, st.Fixes+st.Failures, *sats)
	fmt.Fprintf(w, "  mean error      %8.3f m\n", st.MeanError)
	fmt.Fprintf(w, "  rms error       %8.3f m\n", st.RMSError)
	fmt.Fprintf(w, "  max error       %8.3f m\n", st.MaxError)
	fmt.Fprintf(w, "  mean iterations %8.2f\n", st.MeanIterations)
	fmt.Fprintf(w, "  fixes/failures  %d/%d\n", st.Fixes, st.Failures)
	if *nmeaN > 0 {
		return printNMEA(w, ds, name, *nmeaN)
	}
	return nil
}

// printNMEA prints the GGA and RMC sentences of a one-session engine
// over the first n epochs of ds, the gpsserve -dataset path: the engine
// solves each recorded epoch through its fallback chain with RAIM and
// the warm NR clock feed. Epochs that neither solve nor coast print
// nothing.
func printNMEA(w io.Writer, ds *scenario.Dataset, solver string, n int) error {
	var out []byte
	eng, err := engine.New(engine.Config{
		Receivers: 1,
		Workers:   1,
		Solver:    solver,
		Step:      ds.Config.Step,
		Stations:  []scenario.Station{ds.Station},
		Sink: func(e engine.FixEvent) {
			if e.Err == nil {
				out = append(append(out, e.GGA...), '\n')
				out = append(append(out, e.RMC...), '\n')
			}
		},
	})
	if err != nil {
		return fmt.Errorf("-nmea: %w", err)
	}
	eng.Preload(ds.Epochs)
	if err := eng.RunRange(context.Background(), 0, min(n, ds.Len())); err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// predictorFor returns the predictor to feed NR fixes to, or nil for
// algorithms that do not use one.
func predictorFor(s core.Solver, p clock.Predictor) clock.Predictor {
	switch s.(type) {
	case *core.DLOSolver, *core.DLGSolver, *core.TriSatSolver:
		return p
	default:
		return nil
	}
}
