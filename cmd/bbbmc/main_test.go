package main

import (
	"flag"
	"io"
	"testing"
)

// TestReproRejectsOtherFlags pins bbbmc's mode check: -repro replays the
// witness file alone, so every other flag — bbbmc's own and the run
// flags — set beside it is an error naming that flag, and -repro by
// itself is accepted.
func TestReproRejectsOtherFlags(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		t.Helper()
		fs := flag.NewFlagSet("bbbmc", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		declare(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if err := rejectWithRepro(parse("-repro", "w.json")); err != nil {
		t.Errorf("-repro alone: err = %v, want nil", err)
	}
	for _, name := range []string{"workload", "scheme", "ops", "threads", "parallel", "no-barriers",
		"points", "first", "step", "exhaustive", "maxflips", "maximages", "witness-out"} {
		err := rejectWithRepro(parse("-repro", "w.json", "-"+name+"=1"))
		if want := "-" + name + " has no effect with -repro"; err == nil || err.Error() != want {
			t.Errorf("-repro with -%s: err = %v, want %q", name, err, want)
		}
	}
}
