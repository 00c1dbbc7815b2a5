package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

// Logging is the repository's structured-logging setup: one output
// stream, text or JSON rendering, and one level shared by every
// component (a component is a subsystem name such as "broadcaster" or
// "solver"; each component's logger carries a component=<name>
// attribute).
type Logging struct {
	w     io.Writer
	json  bool
	level slog.Level
	mu    sync.Mutex
	logs  map[string]*slog.Logger
}

// NewLogging returns a logging setup writing to w. format is "text" or
// "json" ("" means text); level is the level of every component.
func NewLogging(w io.Writer, format string, level slog.Level) (*Logging, error) {
	l := &Logging{
		w:     w,
		level: level,
		logs:  make(map[string]*slog.Logger),
	}
	switch strings.ToLower(format) {
	case "", "text":
	case "json":
		l.json = true
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
	return l, nil
}

// Component returns the logger for one subsystem, creating it on first
// use. All records carry component=<name>. Nil receiver returns a
// logger that discards everything, so call sites need no guards.
func (l *Logging) Component(name string) *slog.Logger {
	if l == nil {
		return slog.New(discardHandler{})
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if lg, ok := l.logs[name]; ok {
		return lg
	}
	opts := &slog.HandlerOptions{Level: l.level}
	var h slog.Handler
	if l.json {
		h = slog.NewJSONHandler(l.w, opts)
	} else {
		h = slog.NewTextHandler(l.w, opts)
	}
	lg := slog.New(h).With("component", name)
	l.logs[name] = lg
	return lg
}

// ParseLevel maps "debug", "info", "warn"/"warning", "error" (any case)
// to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q", s)
}

// discardHandler drops every record; it backs nil-Logging loggers.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
