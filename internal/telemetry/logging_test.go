package telemetry

import (
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// syncBuffer serializes writes: several component handlers may share it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestComponentLoggerCarriesAttribute(t *testing.T) {
	var buf syncBuffer
	l, err := NewLogging(&buf, "text", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	l.Component("broadcaster").Info("client connected", "remote", "1.2.3.4")
	out := buf.String()
	if !strings.Contains(out, "component=broadcaster") {
		t.Errorf("record missing component attr: %q", out)
	}
	if !strings.Contains(out, "remote=1.2.3.4") {
		t.Errorf("record missing call-site attr: %q", out)
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf syncBuffer
	l, err := NewLogging(&buf, "", slog.LevelWarn)
	if err != nil {
		t.Fatal(err)
	}
	lg := l.Component("solver")
	lg.Info("dropped")
	lg.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("info record escaped a warn-level logger: %q", out)
	}
	if !strings.Contains(out, "kept") {
		t.Errorf("warn record was dropped: %q", out)
	}
}

func TestJSONFormat(t *testing.T) {
	var buf syncBuffer
	l, err := NewLogging(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	l.Component("admin").Info("up", "addr", "127.0.0.1:0")
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("output is not JSON: %v (%q)", err, buf.String())
	}
	if rec["component"] != "admin" || rec["addr"] != "127.0.0.1:0" {
		t.Errorf("JSON record = %v", rec)
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	if _, err := NewLogging(&syncBuffer{}, "xml", slog.LevelInfo); err == nil {
		t.Error("xml format accepted")
	}
}

func TestNilLoggingIsSilent(t *testing.T) {
	var l *Logging
	lg := l.Component("anything")
	if lg == nil {
		t.Fatal("nil Logging returned nil logger")
	}
	lg.Error("goes nowhere") // must not panic
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "Error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}
