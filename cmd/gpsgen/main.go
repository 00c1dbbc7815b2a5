// Command gpsgen generates the paper's evaluation datasets (Table 5.1):
// synthetic 24-hour observation sets for the four CORS stations, written
// as binary datasets (the format gpsrun and gpsserve -dataset load) or as
// RINEX 2.11 observation + navigation files for export.
//
// Usage:
//
//	gpsgen -table                         # print Table 5.1
//	gpsgen -station YYR1 -duration 3600   # one hour for one station
//	gpsgen -station all -out data/        # all four stations
//	gpsgen -station SRZN -format rinex    # RINEX obs + nav instead
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpsdl/internal/eval"
	"gpsdl/internal/orbit"
	"gpsdl/internal/rinex"
	"gpsdl/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gpsgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gpsgen", flag.ContinueOnError)
	var (
		station  = fs.String("station", "all", "station ID (SRZN, YYR1, FAI1, KYCP) or 'all'")
		seed     = fs.Int64("seed", 2009, "generation seed")
		duration = fs.Float64("duration", 86400, "dataset length in seconds (paper: 86400)")
		step     = fs.Float64("step", 1, "epoch spacing in seconds (paper: 1)")
		format   = fs.String("format", "bin", "output format: bin or rinex")
		outDir   = fs.String("out", ".", "output directory")
		table    = fs.Bool("table", false, "print Table 5.1 and exit")
		almanac  = fs.Bool("almanac", false, "also write the constellation as a YUMA almanac")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *table {
		return eval.FormatTable51(os.Stdout, scenario.Table51Stations())
	}
	if *format != "bin" && *format != "rinex" {
		return fmt.Errorf("unknown format %q (want bin or rinex)", *format)
	}
	stations, err := resolveStations(*station)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	if *almanac {
		path := filepath.Join(*outDir, "constellation.alm")
		if err := writeFile(path, func(f *os.File) error {
			return orbit.WriteYuma(f, orbit.DefaultConstellation().Satellites())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (YUMA almanac, %d satellites)\n", path, orbit.DefaultSatCount)
	}
	for _, st := range stations {
		cfg := scenario.DefaultConfig(*seed)
		cfg.Step = *step
		g := scenario.NewGenerator(st, cfg)
		fmt.Printf("generating %s: %s clock, %.0f s at %.0f s steps...\n",
			st.ID, st.Clock, *duration, *step)
		ds, err := g.GenerateRangeParallel(0, *duration, 0)
		if err != nil {
			return fmt.Errorf("generate %s: %w", st.ID, err)
		}
		if *format == "bin" {
			path := filepath.Join(*outDir, strings.ToLower(st.ID)+".bin")
			if err := ds.SaveFile(path); err != nil {
				return err
			}
			fmt.Printf("  wrote %s (%d epochs, %d-%d satellites)\n",
				path, ds.Len(), ds.MinSatCount(), ds.MaxSatCount())
			continue
		}
		obsPath := filepath.Join(*outDir, strings.ToLower(st.ID)+".09o")
		if err := writeFile(obsPath, func(f *os.File) error {
			return rinex.WriteObs(f, ds)
		}); err != nil {
			return err
		}
		navPath := filepath.Join(*outDir, strings.ToLower(st.ID)+".09n")
		if err := writeFile(navPath, func(f *os.File) error {
			return rinex.WriteNav(f, orbit.DefaultConstellation().Satellites())
		}); err != nil {
			return err
		}
		fmt.Printf("  wrote %s + %s (%d epochs)\n", obsPath, navPath, ds.Len())
	}
	return nil
}

func resolveStations(arg string) ([]scenario.Station, error) {
	if arg == "all" {
		return scenario.Table51Stations(), nil
	}
	st, err := scenario.StationByID(strings.ToUpper(arg))
	if err != nil {
		return nil, err
	}
	return []scenario.Station{st}, nil
}

func writeFile(path string, fill func(*os.File) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	return fill(f)
}
