// Command gpsproxy fronts a set of gpsserve cluster nodes: it routes
// each binary fix subscriber to the node hosting its session, health-
// checks every node, and on a node death re-homes the orphaned sessions
// onto survivors by checkpoint handoff — clients ride across the
// failover on their resume tokens without duplicated or silently
// skipped fixes.
//
//	gpsserve -session-ids 0,1 -wire :7101 -admin :7201 &
//	gpsserve -session-ids 2,3 -wire :7102 -admin :7202 &
//	gpsproxy -addr :7100 -admin :7200 \
//	    -node a=127.0.0.1:7101,http://127.0.0.1:7201 \
//	    -node b=127.0.0.1:7102,http://127.0.0.1:7202
//	gpsclient -addr 127.0.0.1:7100 -session 2
//
// The admin endpoint serves /metrics (relay/failover counters),
// /healthz (per-node up/down), and /cluster/owners (the session
// routing table).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
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
		fmt.Fprintln(os.Stderr, "gpsproxy:", err)
		os.Exit(1)
	}
}

// parseNode parses one -node value: name=wireAddr,adminURL.
func parseNode(v string) (name string, addr cluster.NodeAddr, err error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || strings.TrimSpace(name) == "" {
		return "", addr, fmt.Errorf("want name=wireAddr,adminURL, have %q", v)
	}
	wire, admin, ok := strings.Cut(rest, ",")
	if !ok || strings.TrimSpace(wire) == "" || strings.TrimSpace(admin) == "" {
		return "", addr, fmt.Errorf("want name=wireAddr,adminURL, have %q", v)
	}
	return strings.TrimSpace(name), cluster.NodeAddr{
		Wire:  strings.TrimSpace(wire),
		Admin: strings.TrimSpace(admin),
	}, nil
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gpsproxy", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7100", "binary fix-stream listen address clients connect to")
		adminAddr  = fs.String("admin", "", "admin HTTP listen address serving /metrics, /healthz and /cluster/owners (disabled when empty)")
		replicas   = fs.Int("replicas", 0, "hash-ring virtual nodes per serving node (0 uses the default)")
		hcInterval = fs.Duration("health-interval", 500*time.Millisecond, "per-node /healthz probe interval")
		hcTimeout  = fs.Duration("health-timeout", 2*time.Second, "per-probe timeout")
		hcBad      = fs.Int("health-threshold", 3, "consecutive probe failures that declare a node dead and trigger failover")
		pollEvery  = fs.Duration("poll-interval", time.Second, "session-discovery and checkpoint-cache poll interval")
		budget     = fs.Int("retry-budget", 16, "consecutive upstream failures tolerated per client relay before it is dropped")
		logLevel   = fs.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat  = fs.String("log-format", "text", "log format: text or json")
	)
	nodes := make(map[string]cluster.NodeAddr)
	fs.Func("node", "serving node as name=wireAddr,adminURL (repeatable)", func(v string) error {
		name, na, err := parseNode(v)
		if err != nil {
			return err
		}
		if _, dup := nodes[name]; dup {
			return fmt.Errorf("duplicate node name %q", name)
		}
		nodes[name] = na
		return nil
	})
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("at least one -node name=wireAddr,adminURL is required")
	}
	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logs, err := telemetry.NewLogging(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Nodes:    nodes,
		Replicas: *replicas,
		Health: cluster.HealthConfig{
			Interval:  *hcInterval,
			Timeout:   *hcTimeout,
			Threshold: *hcBad,
		},
		PollInterval: *pollEvery,
		RetryBudget:  *budget,
		Registry:     reg,
		Log:          logs.Component("proxy"),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("gpsproxy: relaying fix streams on %s across %d nodes (%s)\n",
		ln.Addr(), len(nodes), strings.Join(names, ", "))

	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("admin listen %s: %w", *adminAddr, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			up := p.Monitor().UpNodes()
			sort.Strings(up)
			body := struct {
				Status string   `json:"status"` // ok | degraded | isolated
				Nodes  int      `json:"nodes"`
				Up     []string `json:"up"`
			}{Nodes: len(nodes), Up: up}
			code := http.StatusOK
			switch {
			case len(up) == 0:
				body.Status = "isolated"
				code = http.StatusServiceUnavailable
			case len(up) < len(nodes):
				body.Status = "degraded"
			default:
				body.Status = "ok"
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(code)
			_ = json.NewEncoder(w).Encode(body)
		})
		mux.HandleFunc("/cluster/owners", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = json.NewEncoder(w).Encode(p.Owners())
		})
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		stop := context.AfterFunc(ctx, func() { srv.Close() })
		defer stop()
		go func() { _ = srv.Serve(aln) }()
		fmt.Printf("gpsproxy: admin on http://%s (/metrics /healthz /cluster/owners)\n", aln.Addr())
	}

	go p.Run(ctx)
	err = p.ServeWire(ctx, ln)
	if err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
