package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadRun feeds arbitrary bytes to the ledger's run-file reader. The
// rule is error or round trip, never a panic: when the reader accepts a
// file, its intact prefix data[:CleanLen] must read back to the same lines
// with no torn tail, and a file with no torn tail must be intact as a
// whole. Seeds (testdata/fuzz/FuzzReadRun) cover a clean run, a torn
// tail, blank lines, a schema-skewed line and garbage mid-file.
func FuzzReadRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		read := func(name string, b []byte) (*Run, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return readRunFile(path, "fuzz")
		}
		run, err := read("run.jsonl", data)
		if err != nil {
			return
		}
		if run.CleanLen < 0 || run.CleanLen > int64(len(data)) {
			t.Fatalf("CleanLen %d outside [0, %d]", run.CleanLen, len(data))
		}
		if !run.Truncated && run.CleanLen != int64(len(data)) {
			t.Fatalf("no torn tail, yet CleanLen %d of %d bytes", run.CleanLen, len(data))
		}
		clean, err := read("clean.jsonl", data[:run.CleanLen])
		if err != nil {
			t.Fatalf("intact prefix of an accepted run fails to read: %v", err)
		}
		if clean.Truncated {
			t.Fatal("intact prefix reads back with a torn tail")
		}
		if clean.CleanLen != run.CleanLen {
			t.Fatalf("intact prefix CleanLen %d, want %d", clean.CleanLen, run.CleanLen)
		}
		if !reflect.DeepEqual(clean.Lines, run.Lines) {
			t.Fatalf("intact prefix reads %d lines, differing from the run's %d", len(clean.Lines), len(run.Lines))
		}
	})
}
