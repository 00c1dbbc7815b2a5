// Command gpsserve streams live NMEA fixes over TCP, the way gpsd's raw
// mode does: it runs the sharded fix engine (internal/engine) over one
// receiver session by default, or many with -receivers, and broadcasts
// every fix as GGA + RMC sentences to each connected client.
//
//	gpsserve -station YYR1 -solver dlg -addr 127.0.0.1:2947 -rate 10
//	nc 127.0.0.1 2947          # watch the sentences
//
// With -admin, an HTTP endpoint exposes Prometheus metrics, liveness,
// the operator status view, and pprof:
//
//	gpsserve -station YYR1 -admin 127.0.0.1:8080
//	curl 127.0.0.1:8080/metrics
//	curl 127.0.0.1:8080/healthz
//	go tool pprof 127.0.0.1:8080/debug/pprof/profile
//
// With -journal, every session-epoch is recorded in a black-box flight
// journal that gpsinspect inspects and replays offline. Stop with
// Ctrl-C; clients are disconnected cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpsdl/internal/cluster"
	"gpsdl/internal/telemetry"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:]); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "gpsserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gpsserve", flag.ContinueOnError)
	var (
		stationID  = fs.String("station", "YYR1", "Table 5.1 station to simulate ('all' round-robins the four stations across receivers)")
		dataset    = fs.String("dataset", "", "serve a gpsgen dataset file once through a one-receiver engine instead of live generation, then exit")
		solver     = fs.String("solver", "dlg", "positioning algorithm: nr, dlo, dlg or bancroft")
		addr       = fs.String("addr", "127.0.0.1:2947", "TCP listen address")
		adminAddr  = fs.String("admin", "", "admin HTTP listen address serving /metrics, /healthz, /debug/status and /debug/pprof (disabled when empty)")
		rate       = fs.Float64("rate", 1, "epochs per second to stream")
		seed       = fs.Int64("seed", 2009, "base generation seed; each receiver's seed is mixed from it")
		logLevel   = fs.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat  = fs.String("log-format", "text", "log format: text or json")
		receivers  = fs.Int("receivers", 1, "independent receiver sessions served by the sharded fix engine")
		workers    = fs.Int("workers", 0, "engine shard count; 0 means GOMAXPROCS")
		faults     = fs.String("faults", "", "fault-injection program, e.g. 'drop:prn=3,from=10,until=40;burst:sigma=8,from=60'")
		faultSeed  = fs.Int64("fault-seed", 1, "fault-injector seed (burst noise stream) for -faults")
		ckptPath   = fs.String("checkpoint", "", "checkpoint file: clock calibration, health state and last fix per session are saved here periodically and on shutdown")
		ckptEvery  = fs.Int("checkpoint-every", 100, "epochs between per-session checkpoint refreshes (with -checkpoint)")
		ckptPeriod = fs.Duration("checkpoint-interval", 5*time.Second, "wall-clock period between checkpoint file saves (with -checkpoint)")
		restore    = fs.Bool("restore", false, "resume from the -checkpoint file at startup; a missing, corrupt, or mismatched checkpoint falls back to a cold start")
		drainWait  = fs.Duration("drain-timeout", 2*time.Second, "how long shutdown waits for connected clients to drain their queued sentences")
		qualityOn  = fs.Bool("quality", true, "solution-quality windows and SLO/error-budget evaluation, surfaced on /debug/status")
		qualityWin = fs.Int("quality-window", 600, "quality sliding-window span in epochs (with -quality)")
		sloSpec    = fs.String("slo", "", "SLO objectives for -quality, e.g. 'availability>=99.9@600,p99_rms<=13@600,chi2>=95@600' (empty uses those defaults)")
		jrnlPath   = fs.String("journal", "", "black-box flight journal file: every session-epoch is appended as a CRC-framed binary record for offline forensics and replay with gpsinspect")
		jrnlSync   = fs.Int("journal-sync", 0, "record frames between journal sync points / fsyncs (with -journal; 0 uses the default, negative disables)")
		incDir     = fs.String("incident-dir", "", "incident bundle directory: SLO pages, recovered panics and failed sessions are captured here as self-contained forensics bundles")
		incGap     = fs.Duration("incident-interval", 30*time.Second, "minimum wall-clock spacing between incident bundles (with -incident-dir; 0 disables rate limiting)")
		weights    = fs.Bool("weights", false, "map each satellite's C/N0 to a pseudo-range sigma and run the weighted solve paths")
		disrupt    = fs.Bool("disrupt", false, "down-weight satellites whose pseudo-range innovations are robust outliers before RAIM excludes; implies weighted solving")
		wireAddr   = fs.String("wire", "", "binary fix-stream listener address for cluster serving (resume tokens, delta frames)")
		sessions   = fs.String("session-ids", "", "comma-separated global session ids this node hosts, e.g. '0,1' (cluster mode; replaces -receivers)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive, have %g", *rate)
	}
	if *receivers < 1 {
		return fmt.Errorf("-receivers must be >= 1, have %d", *receivers)
	}
	if *dataset == "" && strings.TrimSpace(*stationID) == "" {
		return fmt.Errorf("-station must not be empty (or use -dataset to replay a file)")
	}
	if *ckptEvery <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive, have %d", *ckptEvery)
	}
	if *ckptPeriod <= 0 {
		return fmt.Errorf("-checkpoint-interval must be positive, have %v", *ckptPeriod)
	}
	if *restore && *ckptPath == "" {
		return fmt.Errorf("-restore needs a -checkpoint file to resume from")
	}
	if *qualityWin < 10 {
		return fmt.Errorf("-quality-window must be >= 10 epochs, have %d", *qualityWin)
	}
	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logs, err := telemetry.NewLogging(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}
	var sessionIDs []int
	if *sessions != "" {
		if setFlags["receivers"] {
			return fmt.Errorf("-session-ids replaces -receivers (a cluster node hosts explicit global ids); drop one")
		}
		sessionIDs, err = cluster.ParseSessionIDs(*sessions)
		if err != nil {
			return fmt.Errorf("-session-ids: %v", err)
		}
	}
	if *dataset != "" && (*receivers > 1 || *wireAddr != "" || len(sessionIDs) > 0) {
		return fmt.Errorf("-dataset replay serves a single receiver; drop -receivers/-session-ids/-wire")
	}
	return runEngine(ctx, engineParams{
		receivers:   *receivers,
		sessions:    sessionIDs,
		wireAddr:    *wireAddr,
		workers:     *workers,
		station:     strings.ToUpper(strings.TrimSpace(*stationID)),
		dataset:     *dataset,
		solver:      strings.ToLower(*solver),
		addr:        *addr,
		adminAddr:   *adminAddr,
		rate:        *rate,
		seed:        *seed,
		faults:      *faults,
		faultSeed:   *faultSeed,
		ckptPath:    *ckptPath,
		ckptEvery:   *ckptEvery,
		ckptPeriod:  *ckptPeriod,
		restore:     *restore,
		drainWait:   *drainWait,
		quality:     *qualityOn,
		qualityWin:  *qualityWin,
		sloSpec:     *sloSpec,
		journalPath: *jrnlPath,
		journalSync: *jrnlSync,
		incidentDir: *incDir,
		incidentGap: *incGap,
		weighting:   *weights,
		disruption:  *disrupt,
		logs:        logs,
	})
}
