package crashmc

import (
	"encoding/json"
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// Witness is a minimized, self-contained repro of one crash-consistency
// violation: enough to rebuild the machine, rerun the workload to the
// crash cycle, re-apply the exact surviving-write subset and watch the
// recovery checker fail the same way. bbbmc -repro replays one.
//
// WitnessSchemaVersion is the wire format of Witness. Bump it whenever a
// field changes meaning or the survivor-matching rules move, so bbbmc
// -repro and bbblitmus explain reject stale witnesses instead of silently
// misreplaying them.
const WitnessSchemaVersion = 1

// The witness pins every machine knob the model checker varies from the
// default Table III machine — caches, bbPB, store prefetching and relaxed
// store-buffer drain — and the workload's barrier mode, threads, ops and
// seed; all other configuration is assumed default.
type Witness struct {
	// SchemaVersion is WitnessSchemaVersion at write time; ParseWitness
	// rejects any other value (including its absence in pre-versioned
	// witnesses).
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload"`
	Scheme        string `json:"scheme"`
	NoBarriers    bool   `json:"no_barriers,omitempty"`
	Threads       int    `json:"threads"`
	OpsPerThread  int    `json:"ops_per_thread"`
	Seed          int64  `json:"seed"`

	L1Size             int     `json:"l1_size,omitempty"`
	L2Size             int     `json:"l2_size,omitempty"`
	BBPBEntries        int     `json:"bbpb_entries,omitempty"`
	DrainThreshold     float64 `json:"drain_threshold,omitempty"`
	StorePrefetch      bool    `json:"store_prefetch,omitempty"`
	RelaxedConsistency bool    `json:"relaxed_consistency,omitempty"`

	CrashCycle engine.Cycle   `json:"crash_cycle"`
	Survivors  []WitnessWrite `json:"survivors"`
	// Err is the checker complaint the witness reproduces.
	Err string `json:"err"`
}

// WitnessWrite names one surviving pending write. Free-class writes match
// by line address alone (Core is -1); epoch-class writes match by
// (address, core, epoch) since one core may buffer a line in two epochs.
type WitnessWrite struct {
	Addr  memory.Addr `json:"addr"`
	Core  int         `json:"core"`
	Epoch uint64      `json:"epoch,omitempty"`
}

// newWitness pins a minimized violation for replay.
func newWitness(c Config, crashAt engine.Cycle, rec *Record, survivors []int, errStr string) *Witness {
	w := &Witness{
		SchemaVersion:      WitnessSchemaVersion,
		Workload:           c.Workload.Name(),
		Scheme:             c.Scheme.String(),
		NoBarriers:         c.Params.NoBarriers,
		Threads:            c.Params.Threads,
		OpsPerThread:       c.Params.OpsPerThread,
		Seed:               c.Params.Seed,
		L1Size:             c.System.Hierarchy.L1Size,
		L2Size:             c.System.Hierarchy.L2Size,
		BBPBEntries:        c.System.BBPB.Entries,
		DrainThreshold:     c.System.BBPB.DrainThreshold,
		StorePrefetch:      c.System.Core.StorePrefetch,
		RelaxedConsistency: c.System.Core.RelaxedSBDrain,
		CrashCycle:         crashAt,
		Err:                errStr,
	}
	for _, i := range survivors {
		pw := rec.Pending[i]
		w.Survivors = append(w.Survivors, WitnessWrite{Addr: pw.Addr, Core: pw.Core, Epoch: pw.Epoch})
	}
	return w
}

// MarshalIndent renders the witness as stable, human-auditable JSON.
func (w *Witness) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(w, "", "  ")
}

// ParseWitness decodes a witness written by MarshalIndent (bbbmc
// -witness-out) or by hand.
func ParseWitness(data []byte) (*Witness, error) {
	var w Witness
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("crashmc: bad witness: %w", err)
	}
	if w.SchemaVersion != WitnessSchemaVersion {
		return nil, fmt.Errorf("crashmc: witness schema version %d, this build speaks %d — regenerate the witness",
			w.SchemaVersion, WitnessSchemaVersion)
	}
	if w.Workload == "" || w.Scheme == "" {
		return nil, fmt.Errorf("crashmc: witness missing workload or scheme")
	}
	return &w, nil
}

// ReplayOutcome is what replaying a witness observed.
type ReplayOutcome struct {
	// Pending is the size of the recaptured pending set.
	Pending int
	// Err is the checker complaint on the reconstructed image ("" means
	// the image checked out — the witness did not reproduce).
	Err string
	// Reproduced reports Err matching the witness's recorded complaint.
	Reproduced bool
}

// Recapture rebuilds the witnessed machine, runs the workload to the
// crash cycle, recaptures its pending set, resolves the witness's
// surviving writes against it and writes their image into the record's
// Base in place, as CheckRecord writes each image: rec.Base is then the
// witnessed durable image, not the crash base. That is everything Replay
// does short of judging the image, so other validators (bbblitmus explain
// reads the litmus outcome against the axiomatic allowed set rather than
// running the recovery checker) share the reconstruction. The returned
// workload is the resolved instance whose Setup ran inside the rebuilt
// machine. On an error after the capture, rec is returned unoverlaid.
func (w *Witness) Recapture() (workload.Workload, *Record, error) {
	wl, err := workload.ByName(w.Workload)
	if err != nil {
		return nil, nil, err
	}
	scheme, err := persistency.ParseScheme(w.Scheme)
	if err != nil {
		return nil, nil, err
	}
	cfg := system.DefaultConfig(scheme)
	if w.L1Size > 0 {
		cfg.Hierarchy.L1Size = w.L1Size
	}
	if w.L2Size > 0 {
		cfg.Hierarchy.L2Size = w.L2Size
	}
	if w.BBPBEntries > 0 {
		cfg.BBPB.Entries = w.BBPBEntries
	}
	if w.DrainThreshold > 0 {
		cfg.BBPB.DrainThreshold = w.DrainThreshold
	}
	cfg.Core.StorePrefetch = w.StorePrefetch
	cfg.Core.RelaxedSBDrain = w.RelaxedConsistency
	params := workload.Params{
		Threads:      w.Threads,
		OpsPerThread: w.OpsPerThread,
		Seed:         w.Seed,
		NoBarriers:   w.NoBarriers,
	}
	sys, finished := workload.BuildToCrash(wl, scheme, cfg, params, w.CrashCycle)
	rec := Capture(sys, w.CrashCycle, finished)

	survivors, err := matchSurvivors(rec, w.Survivors)
	if err != nil {
		return wl, rec, err
	}
	if !legalSet(rec, survivors) {
		return wl, rec, fmt.Errorf("crashmc: witness survival set is not legal under %s ordering", w.Scheme)
	}
	s := getScratch()
	defer scratchPool.Put(s)
	s.load(rec)
	s.bindLines()
	s.r.load(survivors)
	s.apply(s.r.resolve())
	return wl, rec, nil
}

// Replay rebuilds the witnessed machine, runs the workload to the crash
// cycle, re-applies the surviving-write subset and re-checks the image.
func Replay(w *Witness) (ReplayOutcome, error) {
	wl, rec, err := w.Recapture()
	var out ReplayOutcome
	if rec != nil {
		out.Pending = len(rec.Pending)
	}
	if err != nil {
		return out, err
	}
	if cerr := wl.Check(rec.Base); cerr != nil {
		out.Err = cerr.Error()
	}
	out.Reproduced = out.Err != "" && out.Err == w.Err
	return out, nil
}

// matchSurvivors resolves witness writes against the recaptured pending
// set, failing loudly when the machine state no longer matches the
// witness (simulator drift invalidates old witnesses).
func matchSurvivors(rec *Record, writes []WitnessWrite) ([]int, error) {
	var out []int
	for _, ww := range writes {
		found := -1
		for i, pw := range rec.Pending {
			if pw.Addr != ww.Addr || pw.Core != ww.Core {
				continue
			}
			if pw.Class == ClassEpoch && pw.Epoch != ww.Epoch {
				continue
			}
			found = i
			break
		}
		if found < 0 {
			return nil, fmt.Errorf("crashmc: witness write %#x (core %d, epoch %d) not pending at cycle %d — witness predates a simulator change?",
				ww.Addr, ww.Core, ww.Epoch, rec.CrashCycle)
		}
		out = append(out, found)
	}
	return out, nil
}
