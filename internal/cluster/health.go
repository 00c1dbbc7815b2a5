package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// HealthConfig tunes a Monitor.
type HealthConfig struct {
	// Interval between probes per node (≤ 0 means 500 ms).
	Interval time.Duration
	// Timeout per probe (≤ 0 means 2 s).
	Timeout time.Duration
	// Threshold is the consecutive-failure count that declares a node
	// down (≤ 0 means 3). One failed scrape is noise; Threshold in a
	// row is a death certificate.
	Threshold int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	return c
}

// Monitor probes each node's /healthz and reports up/down transitions.
// A node is up until Threshold consecutive probes fail; it is down
// until one probe succeeds again.
type Monitor struct {
	cfg   HealthConfig
	urls  map[string]string // node → healthz URL
	mu    sync.Mutex
	state map[string]*nodeHealth

	// OnDown/OnUp observe transitions; called from the probe loop, at
	// most once per transition.
	OnDown func(node string)
	OnUp   func(node string)
}

type nodeHealth struct {
	failures int
	down     bool
}

// NewMonitor builds a Monitor over node → healthz-URL pairs. All nodes
// start up (innocent until probed guilty).
func NewMonitor(urls map[string]string, cfg HealthConfig) *Monitor {
	m := &Monitor{cfg: cfg.withDefaults(), urls: make(map[string]string), state: make(map[string]*nodeHealth)}
	for n, u := range urls {
		m.urls[n] = u
		m.state[n] = &nodeHealth{}
	}
	return m
}

// Up reports whether node is currently considered healthy.
func (m *Monitor) Up(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[node]
	return ok && !st.down
}

// UpNodes lists currently healthy nodes.
func (m *Monitor) UpNodes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.state))
	for n, st := range m.state {
		if !st.down {
			out = append(out, n)
		}
	}
	return out
}

// probe performs one health check.
func (m *Monitor) probe(ctx context.Context, node string) bool {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.urls[node], nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Observe folds one probe result in and fires transition callbacks.
// Exposed so tests (and synchronous probes) can drive the state
// machine directly.
func (m *Monitor) Observe(node string, ok bool) {
	m.mu.Lock()
	st, known := m.state[node]
	if !known {
		m.mu.Unlock()
		return
	}
	var fire func(string)
	if ok {
		st.failures = 0
		if st.down {
			st.down = false
			fire = m.OnUp
		}
	} else {
		st.failures++
		if !st.down && st.failures >= m.cfg.Threshold {
			st.down = true
			fire = m.OnDown
		}
	}
	m.mu.Unlock()
	if fire != nil {
		fire(node)
	}
}

// Run probes every node on the configured interval until ctx ends.
// Each node gets its own loop so one stuck probe cannot delay the
// others' death certificates.
func (m *Monitor) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for node := range m.urls {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			t := time.NewTicker(m.cfg.Interval)
			defer t.Stop()
			for {
				m.Observe(node, m.probe(ctx, node))
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
			}
		}(node)
	}
	wg.Wait()
}
