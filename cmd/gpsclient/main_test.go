package main

import (
	"context"
	"os"
	"testing"
)

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}, os.Stdout, os.Stderr); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
