package main

import (
	"context"
	"testing"
)

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
