// Command rinexdump inspects RINEX files written by this repository:
// header fields, epoch counts, satellite statistics.
//
// Usage:
//
//	rinexdump -obs srzn.09o
//	rinexdump -nav srzn.09n
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rinexdump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rinexdump", flag.ContinueOnError)
	var (
		obsPath = fs.String("obs", "", "RINEX observation file to dump")
		navPath = fs.String("nav", "", "RINEX navigation file to dump")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *obsPath == "" && *navPath == "" {
		return fmt.Errorf("one of -obs or -nav is required")
	}
	if *obsPath != "" {
		if err := dumpObs(*obsPath); err != nil {
			return err
		}
	}
	if *navPath != "" {
		if err := dumpNav(*navPath); err != nil {
			return err
		}
	}
	return nil
}
