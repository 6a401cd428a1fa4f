package check

import (
	"bytes"
	"fmt"

	"repro/internal/bench"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// The snapshot suite holds internal/state to the live-session contract:
// cutting a trace at any block boundary, serializing the engine, restoring
// the bytes into a brand-new engine (through pooled storage, the way the
// serving layer does) and continuing must be indistinguishable from never
// stopping — per-dispatch predictions, accounting counters and the final
// serialized bytes all included.

// stateExtensions are the snapshot-capable predictors outside the bench
// families that the block and snapshot oracles also cover. The oracle
// predictor is excluded on purpose: it is unbounded and deliberately not a
// Snapshotter.
var stateExtensions = []string{"CBT", "PPM-filtered", "PPM-multi"}

// engineFamilies lists every predictor label the block and snapshot oracles
// cover: the bench families plus the snapshot-capable extensions.
func engineFamilies() []string {
	return append(Families(), stateExtensions...)
}

// newStatePredictor builds a fresh predictor for an engineFamilies label.
// Extension labels pin the same configurations the experiments use; this
// is the only place those configurations are written down in the harness.
func newStatePredictor(family string) (predictor.IndirectPredictor, bool) {
	switch family {
	case "CBT":
		return cbt.New(cbt.Config{Entries: 2048, Availability: 0.5, Seed: 0xCB7}), true
	case "PPM-filtered":
		return core.PaperFiltered(), true
	case "PPM-multi":
		return core.NewMultiTarget(10, 4), true
	}
	return bench.NewPredictor(family)
}

// statePool is the shared pool the differential snapshots through, mirroring
// the serving layer's pooled save/restore path.
var statePool = state.NewPool()

// diffState replays recs through a single predictor family twice: once
// uncut, and once snapshotting at every cut boundary — serialize through a
// pooled writer, restore into a brand-new engine through a pooled reader,
// and continue on the restored engine. Chaining the restore at every
// boundary makes one pass cover every cut point at once. Cut cadences come
// from blockDiffCaps, so shrunken traces still cross many boundaries.
// Describes the first disagreement at any cadence.
func diffState(family string, recs []trace.Record) error {
	p, _ := newStatePredictor(family)
	ref := sim.New(p)
	refPreds := make([]sim.Prediction, 0, len(recs))
	for _, r := range recs {
		if pr, dispatched := ref.ProcessPredicted(r); dispatched {
			refPreds = append(refPreds, pr)
		}
	}
	refFinal := state.SaveBytes(ref)

	for _, cut := range blockDiffCaps {
		if err := diffStateAtCut(family, recs, cut, refPreds, refFinal, ref); err != nil {
			return fmt.Errorf("snapshot/restore chain (cut every %d records) diverged from the uncut run: %w", cut, err)
		}
	}
	return nil
}

// diffStateAtCut runs the chained snapshot/restore replay at one cut
// cadence and compares it against the uncut reference run.
func diffStateAtCut(family string, recs []trace.Record, cut int, refPreds []sim.Prediction, refFinal []byte, ref *sim.Engine) error {
	p, _ := newStatePredictor(family)
	live := sim.New(p)
	w := statePool.Writer()
	defer statePool.PutWriter(w)
	r := statePool.Reader()
	defer statePool.PutReader(r)
	next := 0
	for i, rec := range recs {
		if i > 0 && i%cut == 0 {
			// Save aliases the pooled writer's buffer; the immediate Load
			// consumes it before the next boundary reuses the writer.
			data := state.Save(live, w)
			np, _ := newStatePredictor(family)
			restored := sim.New(np)
			if err := state.Load(restored, r, data); err != nil {
				return fmt.Errorf("restore at record %d: %v", i, err)
			}
			live = restored
		}
		pr, dispatched := live.ProcessPredicted(rec)
		if !dispatched {
			continue
		}
		if next >= len(refPreds) {
			return fmt.Errorf("record %d: chained run dispatched more predictions than the uncut run", i)
		}
		if pr != refPreds[next] {
			return fmt.Errorf("record %d (dispatch %d): chained %+v vs uncut %+v", i, next, pr, refPreds[next])
		}
		next++
	}
	if next != len(refPreds) {
		return fmt.Errorf("chained run made %d predictions, uncut run made %d", next, len(refPreds))
	}
	if err := enginesMatch(ref, live); err != nil {
		return err
	}
	if !bytes.Equal(state.SaveBytes(live), refFinal) {
		return fmt.Errorf("final snapshots differ")
	}
	return nil
}

// StateIdentity runs the snapshot oracle over every family it covers on
// one trace — the relation the metamorphic pass asserts.
func StateIdentity(recs []trace.Record) error {
	o, _ := oracleFor("state")
	if err := o.check(o.Families, recs); err != nil {
		return fmt.Errorf("state identity: %w", err)
	}
	return nil
}
