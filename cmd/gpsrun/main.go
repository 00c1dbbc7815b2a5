// Command gpsrun processes a dataset with one positioning algorithm and
// prints fix statistics: per-epoch error distribution, solve times, DOP.
//
// Usage:
//
//	gpsrun -dataset yyr1.jsonl -solver dlg
//	gpsrun -dataset yyr1.jsonl -solver nr -sats 6 -epochs 1000
//
// To re-solve fixes captured by a running server, use gpsinspect replay
// on its flight journal or an incident bundle.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpsdl/internal/clock"
	"gpsdl/internal/core"
	"gpsdl/internal/eval"
	"gpsdl/internal/fault"
	"gpsdl/internal/geo"
	"gpsdl/internal/nmea"
	"gpsdl/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gpsrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gpsrun", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "", "path to a JSON-lines dataset from gpsgen (required)")
		solver    = fs.String("solver", "dlg", "algorithm: nr, dlo, dlg, bancroft or trisat")
		sats      = fs.Int("sats", 8, "satellites per epoch (4-12)")
		epochs    = fs.Int("epochs", 0, "max epochs to process (0 = all)")
		seed      = fs.Int64("seed", 1, "satellite-selection seed")
		nmeaN     = fs.Int("nmea", 0, "emit NMEA GGA/RMC sentences for the first N fixes")
		faults    = fs.String("faults", "", "apply a fault-injection program to the dataset first, e.g. 'step:prn=7,bias=400,from=100;burst:sigma=8'")
		faultSeed = fs.Int64("fault-seed", 1, "fault-injector seed (burst noise stream) for -faults")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataset == "" {
		return fmt.Errorf("-dataset is required")
	}
	ds, err := loadDataset(*dataset)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: station %s (%s clock), %d epochs, %d-%d satellites\n",
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
		fmt.Printf("faults applied: %s (seed %d): %d events", prog.String(), *faultSeed, len(log))
		for _, k := range []string{"drop", "step", "ramp", "burst", "clockjump", "shrink"} {
			if byKind[k] > 0 {
				fmt.Printf(" %s=%d", k, byKind[k])
			}
		}
		fmt.Println()
	}

	pred := eval.DefaultPredictor(ds.Station.Clock)
	var s core.Solver
	switch strings.ToLower(*solver) {
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
	fmt.Printf("%s over %d epochs (m=%d):\n", st.Name, st.Fixes+st.Failures, *sats)
	fmt.Printf("  mean error      %8.3f m\n", st.MeanError)
	fmt.Printf("  rms error       %8.3f m\n", st.RMSError)
	fmt.Printf("  max error       %8.3f m\n", st.MaxError)
	fmt.Printf("  mean solve time %8.0f ns\n", st.MeanNanos)
	fmt.Printf("  mean iterations %8.2f\n", st.MeanIterations)
	fmt.Printf("  fixes/failures  %d/%d\n", st.Fixes, st.Failures)
	if *nmeaN > 0 {
		return emitNMEA(ds, s, pred, *nmeaN)
	}
	return nil
}

// emitNMEA streams the first n fixes as NMEA GGA + RMC sentences.
func emitNMEA(ds *scenario.Dataset, s core.Solver, pred clock.Predictor, n int) error {
	var nr core.NRSolver
	emitted := 0
	for i := range ds.Epochs {
		if emitted >= n {
			break
		}
		e := &ds.Epochs[i]
		obs := make([]core.Observation, 0, len(e.Obs))
		for _, o := range e.Obs {
			obs = append(obs, core.Observation{Pos: o.Pos, Pseudorange: o.Pseudorange, Elevation: o.Elevation})
		}
		// Maintain the predictor for direct solvers.
		if nrSol, err := nr.Solve(e.T, obs); err == nil {
			pred.Observe(clock.Fix{T: e.T, Bias: nrSol.ClockBias / geo.SpeedOfLight})
		}
		sol, err := s.Solve(e.T, obs)
		if err != nil {
			continue
		}
		hdop := 0.0
		if dop, err := core.DOPFromObs(sol.Pos, obs); err == nil {
			hdop = dop.HDOP
		}
		fix := nmea.Fix{
			TimeOfDay: e.T,
			Pos:       sol.Pos.ToLLA(),
			Quality:   nmea.QualityGPS,
			NumSats:   len(obs),
			HDOP:      hdop,
		}
		fmt.Println(nmea.GGA(fix))
		fmt.Println(nmea.RMC(fix))
		emitted++
	}
	return nil
}

// loadDataset loads a dataset in either on-disk format by extension.
func loadDataset(path string) (*scenario.Dataset, error) {
	if strings.HasSuffix(path, ".bin") {
		return scenario.LoadBinaryFile(path)
	}
	return scenario.LoadFile(path)
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
