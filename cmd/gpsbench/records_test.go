package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedRecords reruns every entry of records in process, with
// the flags the committed file was written with, and requires the fresh
// JSON to equal BENCH_<name>.json at the repository root byte for byte.
// The records hold counts and errors that are exact for the seed, no
// timing, so no line is exempt: a change that moves one bit of the
// generator, engine, checkpoint or wire output fails here. gpsbench is
// the one writer of a record; refresh them with make bench-records when
// the move is intended.
func TestCommittedRecords(t *testing.T) {
	for _, r := range records {
		t.Run(r.name, func(t *testing.T) {
			file := "BENCH_" + r.name + ".json"
			fresh := filepath.Join(t.TempDir(), file)
			if err := run([]string{"-" + r.name, "-" + r.name + "-json", fresh}); err != nil {
				t.Fatalf("gpsbench -%s: %v", r.name, err)
			}
			got, err := os.ReadFile(fresh)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from a fresh gpsbench -%s run; %s\n"+
					"refresh the records with make bench-records if the change is intended",
					file, r.name, firstDiff(want, got))
			}
		})
	}
}

// firstDiff describes where two texts first differ: the line number and
// up to three lines of each from there.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	excerpt := func(lines []string) string {
		end := min(i+3, len(lines))
		if i >= end {
			return "  (end of file)"
		}
		return "  " + strings.Join(lines[i:end], "\n  ")
	}
	return fmt.Sprintf("first difference at line %d:\ncommitted:\n%s\nfresh:\n%s", i+1, excerpt(w), excerpt(g))
}
