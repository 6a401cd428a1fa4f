package check

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// Oracle is one lock-step check: it replays the same trace two ways that
// must agree, one predictor family at a time. Oracles is the registry
// cmd/ppmcheck hunts with, ReplaySeed replays corpus seeds through and
// `go test` sweeps; enrolling a new lock-step check is one row there.
type Oracle struct {
	// Kind is the corpus seed kind the oracle replays, and the prefix of
	// the seed names its hunt writes.
	Kind string
	// Label names the oracle in reports.
	Label string
	// Families lists the predictor labels the oracle covers.
	Families []string
	// diff replays recs through one family both ways and describes the
	// first disagreement, or returns nil if the two agreed.
	diff func(family string, recs []trace.Record) error
}

// Oracles lists every lock-step oracle, in report order.
var Oracles = []Oracle{
	{Kind: "diff", Label: "differential", Families: append(Families(), ppmVariants...), diff: diffReference},
	{Kind: "blocks", Label: "blocks-vs-records", Families: engineFamilies(), diff: diffBlocks},
	{Kind: "state", Label: "snapshot-restore", Families: engineFamilies(), diff: diffState},
}

// Divergence records the first disagreement an oracle found for one
// predictor family.
type Divergence struct {
	Family string
	Detail string
}

// String formats the divergence for bug reports.
func (d *Divergence) String() string { return d.Family + ": " + d.Detail }

// Covers reports whether family is one of the oracle's Families.
func (o Oracle) Covers(family string) bool { return slices.Contains(o.Families, family) }

// Diff replays recs through family both ways and returns the first
// divergence, or nil if the two agreed. A family the oracle does not cover
// is an error.
func (o Oracle) Diff(family string, recs []trace.Record) (*Divergence, error) {
	if !o.Covers(family) {
		return nil, fmt.Errorf("check: %s covers no predictor family %q", o.Label, family)
	}
	if err := o.diff(family, recs); err != nil {
		return &Divergence{Family: family, Detail: err.Error()}, nil
	}
	return nil, nil
}

// Diverges reports whether replaying recs produces a divergence for the
// family — the predicate the shrinker minimizes against.
func (o Oracle) Diverges(family string, recs []trace.Record) bool {
	d, err := o.Diff(family, recs)
	return err == nil && d != nil
}

// check replays recs through every listed family and returns the first
// divergence as an error.
func (o Oracle) check(families []string, recs []trace.Record) error {
	for _, fam := range families {
		d, err := o.Diff(fam, recs)
		if err != nil {
			return err
		}
		if d != nil {
			return fmt.Errorf("%s: %s", o.Label, d)
		}
	}
	return nil
}

// oracleFor returns the oracle that replays seeds of the given kind.
func oracleFor(kind string) (Oracle, bool) {
	for _, o := range Oracles {
		if o.Kind == kind {
			return o, true
		}
	}
	return Oracle{}, false
}

// diffReference replays recs through the optimized predictor for a Figure
// 6/7 or ppmVariants label and its naive reference in lock-step, following
// the simulator protocol (Predict and Update on MT indirect records, Observe
// on every record), and describes the first prediction they disagreed on.
func diffReference(family string, recs []trace.Record) error {
	opt, _ := newStatePredictor(family)
	ref, _ := NewReference(family)
	for i, r := range recs {
		if r.MTIndirect() {
			optTgt, optOK := opt.Predict(r.PC)
			refTgt, refOK := ref.Predict(r.PC)
			if optOK != refOK || (optOK && optTgt != refTgt) {
				return fmt.Errorf("diverged at step %d (%s): optimized=(%#x,%v) reference=(%#x,%v)",
					i, r, optTgt, optOK, refTgt, refOK)
			}
			opt.Update(r.PC, r.Target)
			ref.Update(r.PC, r.Target)
		}
		opt.Observe(r)
		ref.Observe(r)
	}
	return nil
}
