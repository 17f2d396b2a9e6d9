package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRun holds run's whole output to testdata/run.golden. After an
// intended change, rewrite it with
// go run ./examples/roadnetwork > examples/roadnetwork/testdata/run.golden
// and read the diff.
func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/run.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("output differs from testdata/run.golden; got:\n%s", got)
	}
}
