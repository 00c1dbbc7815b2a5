package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultOutput holds the example's default output to the byte.
// Regenerate the golden with
//
//	go run ./examples/vehicletracking > examples/vehicletracking/testdata/output.txt
func TestDefaultOutput(t *testing.T) {
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/output.txt\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestHelpReturnsNil: -h prints the usage and is not an error, so the
// command exits 0.
func TestHelpReturnsNil(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
