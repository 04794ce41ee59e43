package conform

import (
	"fmt"
	"strings"

	"bbb/internal/axiomatic"
	"bbb/internal/crashmc"
	"bbb/internal/litmus"
	"bbb/internal/persistency"
)

// Explanation is the triage of one divergence witness: the rebuilt
// outcome, whether it still escapes the allowed set, and which kind of
// defect that implies.
type Explanation struct {
	Test   string
	Scheme persistency.Scheme
	Model  axiomatic.Model
	// Outcome is the durable outcome the witnessed survival set produces
	// on the rebuilt machine; Formatted renders it with variable names.
	Outcome   axiomatic.Outcome
	Formatted string
	// Reproduced reports the outcome still lying outside the model's
	// allowed set.
	Reproduced bool
	// Note is the triage verdict (simulator bug vs stale witness vs
	// broken strengthening), suitable for printing.
	Note string
}

// Explain replays a conformance divergence witness: Witness.Recapture
// rebuilds the machine and writes the witnessed image in place, and the
// outcome read from it is re-judged against the axiomatic model — the
// litmus analogue of `bbbmc -repro`.
func Explain(w *crashmc.Witness) (Explanation, error) {
	name, ok := strings.CutPrefix(w.Workload, "litmus/")
	if !ok {
		return Explanation{}, fmt.Errorf("conform: witness workload %q is not a litmus test (use bbbmc -repro for workload witnesses)", w.Workload)
	}
	t, err := litmus.ByName(name)
	if err != nil {
		return Explanation{}, err
	}
	scheme, err := persistency.ParseScheme(w.Scheme)
	if err != nil {
		return Explanation{}, err
	}
	wl, rec, err := w.Recapture()
	if err != nil {
		return Explanation{}, err
	}
	lw, ok := wl.(*litmus.Workload)
	if !ok {
		return Explanation{}, fmt.Errorf("conform: workload %q resolved to %T, not a litmus workload", w.Workload, wl)
	}

	model := ModelFor(scheme)
	out := axiomatic.Outcome(lw.ReadOutcome(rec.Base))
	allowed := axiomatic.Enumerate(t, model)
	relaxed := axiomatic.Enumerate(t, axiomatic.Relaxed)

	ex := Explanation{
		Test:       t.Name,
		Scheme:     scheme,
		Model:      model,
		Outcome:    out,
		Formatted:  axiomatic.FormatOutcome(t, out),
		Reproduced: !allowed.Contains(out),
	}
	switch {
	case !ex.Reproduced:
		ex.Note = "outcome is now inside the allowed set — the witness is stale (simulator or model changed since it was written); regenerate with `bbblitmus conform`"
	case !relaxed.Contains(out):
		ex.Note = "outcome escapes even relaxed Px86 — a core TSO-persistency bug in the simulator (store order or flush/fence handling), not a scheme strengthening issue"
	default:
		ex.Note = fmt.Sprintf("outcome is Px86-allowed but outside the %s envelope the %s scheme must enforce — the simulator's %s strengthening is broken (persistence-domain capture or drain order)", model, scheme, scheme)
	}
	return ex, nil
}
