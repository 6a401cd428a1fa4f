// Package stats provides the accuracy accounting used throughout the
// experiment harness: per-predictor misprediction counters, ratios, and
// cross-run aggregation matching the paper's reporting (misprediction ratio
// over dynamic multi-target indirect branches; a prediction the predictor
// declined to make counts as a misprediction).
package stats

import "fmt"

// Counters accumulates prediction outcomes for one predictor on one run.
type Counters struct {
	// Predictor names the configuration.
	Predictor string
	// Lookups is the number of MT indirect branches presented.
	Lookups uint64
	// Correct counts right-target predictions.
	Correct uint64
	// Wrong counts wrong-target predictions.
	Wrong uint64
	// NoPrediction counts lookups where the predictor abstained.
	NoPrediction uint64

	// lane, while attached (Attach), receives one Prediction per Resolve.
	lane *[]Prediction
}

// Prediction is one MT indirect dispatch's outcome, as Resolve appends it
// to an attached lane.
type Prediction struct {
	Target    uint64 // predicted target; meaningful only when Predicted
	Predicted bool   // the predictor ventured a prediction
	Correct   bool   // Predicted and the target matched the committed one
}

// Attach points the counters' outcome lane at lane: every Resolve until
// the next Attach(nil) also appends its Prediction to *lane, within *lane's
// capacity. The caller reserves that capacity up front, one slot per
// dispatch to come, so the dispatch loops never grow the lane themselves;
// an outcome past the reserved capacity is not recorded.
func (c *Counters) Attach(lane *[]Prediction) { c.lane = lane }

// Resolve scores one dispatch — the predictor's (target, ok) against the
// committed actual target — and, with a lane attached, appends the outcome
// to it. It is the one accounting call of every dispatch loop.
//
//ppm:hotpath per-dispatch misprediction accounting and outcome lane
func (c *Counters) Resolve(target uint64, ok bool, actual uint64) {
	c.Lookups++
	switch {
	case !ok:
		c.NoPrediction++
	case target == actual:
		c.Correct++
	default:
		c.Wrong++
	}
	// Appending only within the reserved capacity compiles to no growth
	// call (nor the register spills one would force on every loop) and no
	// bounds check.
	if l := c.lane; l != nil && len(*l) < cap(*l) {
		*l = append(*l, Prediction{Target: target, Predicted: ok, Correct: ok && target == actual}) //lint:coldpath len < cap: never grows
	}
}

// Mispredictions returns wrong + abstained, the paper's numerator.
func (c Counters) Mispredictions() uint64 { return c.Wrong + c.NoPrediction }

// MispredictionRatio returns mispredictions / lookups in [0,1]; zero when
// no lookups occurred.
func (c Counters) MispredictionRatio() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Mispredictions()) / float64(c.Lookups)
}

// Accuracy returns 1 - MispredictionRatio.
func (c Counters) Accuracy() float64 { return 1 - c.MispredictionRatio() }

// String formats the counters compactly.
func (c Counters) String() string {
	return fmt.Sprintf("%s: %.2f%% mispred (%d/%d, %d abstained)",
		c.Predictor, 100*c.MispredictionRatio(), c.Mispredictions(), c.Lookups, c.NoPrediction)
}

// Add merges another run's counters for the same predictor.
func (c *Counters) Add(o Counters) {
	c.Lookups += o.Lookups
	c.Correct += o.Correct
	c.Wrong += o.Wrong
	c.NoPrediction += o.NoPrediction
}

// MeanRatio returns the arithmetic mean of per-run misprediction ratios,
// the cross-benchmark average the paper reports (9.47% for PPM-hyb etc.).
// Runs with zero lookups are skipped.
func MeanRatio(runs []Counters) float64 {
	var sum float64
	n := 0
	for _, r := range runs {
		if r.Lookups == 0 {
			continue
		}
		sum += r.MispredictionRatio()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Distribution summarizes a discrete distribution (e.g. per-component
// accesses in the PPM stack).
type Distribution struct {
	Labels []string
	Counts []uint64
}

// Total sums the counts.
func (d Distribution) Total() uint64 {
	var t uint64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Share returns counts[i] as a fraction of the total (0 when empty).
func (d Distribution) Share(i int) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(d.Counts[i]) / float64(t)
}
