// Command gpsclient subscribes to one session's binary fix stream from
// a gpsserve node or a gpsproxy and prints one line per delivered fix.
// It presents a resume token on reconnect and rides node failovers with
// jittered exponential backoff, so the printed epochs are strictly
// consecutive even when the serving node is killed mid-stream — which
// makes its stdout directly diffable between an interrupted run and an
// uninterrupted one. Lifecycle events (connect, resume verdicts, gaps,
// retries) go to stderr with -events.
//
//	gpsclient -addr 127.0.0.1:7100 -session 2 -count 500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpsdl/internal/journal"
	"gpsdl/internal/wire"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "gpsclient:", err)
		os.Exit(1)
	}
}

// fixLine renders one delivered fix as a stable, diffable line.
func fixLine(f wire.Fix) string {
	flags := ""
	if f.Miss {
		flags = " miss"
	}
	if f.Coast {
		flags += " coast"
	}
	if f.Suspect {
		flags += " suspect"
	}
	if f.Degraded {
		flags += " degraded"
	}
	return fmt.Sprintf("session=%d epoch=%d x=%.3f y=%.3f z=%.3f bias=%.3f hdop=%.2f sats=%d solver=%s state=%s%s",
		f.Session, f.Epoch, f.X, f.Y, f.Z, f.ClockBias, f.HDOP, f.Sats,
		journal.SolverName(f.Solver), journal.StateName(f.State), flags)
}

func run(ctx context.Context, args []string, out, errOut *os.File) error {
	fs := flag.NewFlagSet("gpsclient", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7100", "gpsserve -wire or gpsproxy -addr to subscribe to")
		session = fs.Int("session", 0, "global session id to stream")
		resume  = fs.Int64("resume", -1, "resume token: last acknowledged epoch (-1 subscribes live)")
		count   = fs.Int("count", 0, "exit after this many fixes (0 streams until interrupted)")
		budget  = fs.Int("retry-budget", 0, "consecutive failed reconnects before giving up (0 uses the default)")
		events  = fs.Bool("events", false, "print lifecycle events (connect/resume/gap/retry) to stderr")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *session < 0 {
		return fmt.Errorf("-session must be non-negative, have %d", *session)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := wire.ClientConfig{
		Addr:        *addr,
		Session:     *session,
		Resume:      *resume,
		RetryBudget: *budget,
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  3 * time.Second,
	}
	if *events {
		cfg.OnEvent = func(e wire.ClientEvent) {
			line := fmt.Sprintf("# %s session=%d", e.Kind, *session)
			switch e.Kind {
			case "resume", "gap":
				line += fmt.Sprintf(" status=%d head=%d", e.Resume.Status, e.Resume.Head)
			case "retry":
				line += fmt.Sprintf(" attempt=%d sleep=%s err=%v", e.Attempt, e.Sleep, e.Err)
			case "disconnect", "give-up":
				line += fmt.Sprintf(" err=%v", e.Err)
			}
			fmt.Fprintln(errOut, line)
		}
	}
	c := wire.DialSession(cctx, cfg)
	defer c.Close()

	n := 0
	for f := range c.Fixes() {
		fmt.Fprintln(out, fixLine(f))
		n++
		if *count > 0 && n >= *count {
			return nil
		}
	}
	// The stream closed before -count was satisfied: surface why.
	if err := c.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("stream ended after %d fixes: %w", n, err)
	}
	return nil
}
