// Command ppmcheck is the simulator's correctness harness. It hunts every
// lock-step oracle in check.Oracles — the optimized predictors against
// their naive references, the block engine against the record engine, and
// snapshot/restore-at-every-cut chains against uncut runs — over randomized
// traces; it replays the checked-in regression corpus, runs the metamorphic
// properties (caching, worker count, serving and session granularity must
// never change a result byte), and sweeps fault injection across the trace
// decoder, the upload path and the live-session predict stream.
//
//	ppmcheck -quick              the bounded CI pass (corpus + small sweeps)
//	ppmcheck -seeds 500          a long hunt
//	ppmcheck -families PPM-hyb   restrict every hunt to the named families
//	ppmcheck -corpus DIR         corpus location (default internal/check/testdata/corpus)
//
// Each oracle hunts the named families it covers; a name no oracle covers
// is a usage error (exit 2). When an oracle finds a divergence, ppmcheck
// minimizes the failing trace with delta debugging, writes it into the
// corpus as a new seed (<kind>-<family>-seed<N>, replayed through the same
// oracle), and exits 1: the bug becomes a regression test before it is
// even fixed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/check"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected: args without the program name, the
// stdout stream ok lines go to, and the stderr stream failures go to. It
// returns the process exit code instead of calling os.Exit so tests can
// drive the argument handling.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "bounded pass: corpus replay, small differential/metamorphic/fault sweeps")
		seeds    = fs.Int("seeds", 50, "random seeds per family for each oracle's hunt")
		events   = fs.Int("events", 2000, "records per generated trace")
		families = fs.String("families", "", "comma-separated predictor families (default all)")
		corpus   = fs.String("corpus", "internal/check/testdata/corpus", "regression-seed corpus directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *quick {
		*seeds, *events = 6, 800
	}
	var named []string
	if *families != "" {
		named = strings.Split(*families, ",")
		for _, fam := range named {
			if !slices.ContainsFunc(check.Oracles, func(o check.Oracle) bool { return o.Covers(fam) }) {
				fmt.Fprintf(stderr, "ppmcheck: no oracle covers predictor family %q\n", fam)
				return 2
			}
		}
	}

	c := console{stdout, stderr}
	ok := c.replayCorpus(*corpus)
	for _, o := range check.Oracles {
		fams := o.Families
		if named != nil {
			fams = slices.DeleteFunc(slices.Clone(named), func(fam string) bool { return !o.Covers(fam) })
		}
		ok = c.hunt(o, fams, *seeds, *events, *corpus) && ok
	}
	ok = c.report("metamorphic", check.Metamorphic(1, *events)) && ok
	ok = c.report("truncation sweep", check.TruncationSweep(check.RandomRecords(9, 60), nil)) && ok
	ok = c.report("errafter sweep", check.ErrAfterSweep(check.RandomRecords(9, 60))) && ok
	ok = c.uploadSweep() && ok
	ok = c.predictSweep() && ok
	if !ok {
		return 1
	}
	fmt.Fprintln(stdout, "ppmcheck: all checks passed")
	return 0
}

// console holds the streams checks report to.
type console struct{ stdout, stderr io.Writer }

// report reports one named check.
func (c console) report(name string, err error) bool {
	if err != nil {
		fmt.Fprintf(c.stderr, "FAIL %s: %v\n", name, err)
		return false
	}
	fmt.Fprintf(c.stdout, "ok   %s\n", name)
	return true
}

// replayCorpus re-runs every checked-in regression seed.
func (c console) replayCorpus(dir string) bool {
	seeds, err := check.LoadSeeds(dir)
	if err != nil {
		fmt.Fprintf(c.stderr, "FAIL corpus: %v\n", err)
		return false
	}
	ok := true
	for _, e := range seeds {
		if err := check.ReplaySeed(e); err != nil {
			fmt.Fprintf(c.stderr, "FAIL corpus seed %s: %v\n", e.Seed.Name, err)
			ok = false
		}
	}
	if ok {
		fmt.Fprintf(c.stdout, "ok   corpus (%d seeds)\n", len(seeds))
	}
	return ok
}

// hunt lock-steps every family through oracle o over randomized traces; a
// divergence is minimized against o and written back into the corpus as a
// seed of o's kind.
func (c console) hunt(o check.Oracle, fams []string, seeds, events int, corpusDir string) bool {
	ok := true
	for _, fam := range fams {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			for _, in := range []struct {
				kind string
				recs []trace.Record
			}{
				{"workload", check.RandomTrace(seed, events)},
				{"raw", check.RandomRecords(seed, events)},
			} {
				d, err := o.Diff(fam, in.recs)
				if err != nil {
					fmt.Fprintf(c.stderr, "FAIL %s %s: %v\n", o.Label, fam, err)
					return false
				}
				if d == nil {
					continue
				}
				ok = false
				min := check.Shrink(in.recs, func(r []trace.Record) bool { return o.Diverges(fam, r) })
				fmt.Fprintf(c.stderr, "FAIL %s (%s seed %d): %s\n  minimized to %d records\n", o.Label, in.kind, seed, d, len(min))
				seedName := fmt.Sprintf("%s-%s-seed%d", o.Kind, strings.ToLower(fam), seed)
				werr := check.WriteSeed(corpusDir, check.Seed{
					Name: seedName, Family: fam, Kind: o.Kind,
					Note: fmt.Sprintf("minimized %s divergence found by ppmcheck (%s stream, seed %d)", o.Label, in.kind, seed),
				}, min)
				if werr != nil {
					fmt.Fprintf(c.stderr, "  (could not write corpus seed: %v)\n", werr)
				} else {
					fmt.Fprintf(c.stderr, "  repro written to %s/%s.{json,ibt2}\n", corpusDir, seedName)
				}
			}
		}
	}
	if ok {
		fmt.Fprintf(c.stdout, "ok   %s (%d families x %d seeds x 2 streams)\n", o.Label, len(fams), seeds)
	}
	return ok
}

// uploadSweep runs the HTTP upload truncation sweep.
func (c console) uploadSweep() bool {
	report, err := check.UploadTruncationSweep(check.RandomRecords(9, 40), "BTB")
	if err != nil {
		fmt.Fprintf(c.stderr, "FAIL upload sweep: %v\n", err)
		return false
	}
	fmt.Fprintf(c.stdout, "ok   upload sweep (%d clean prefixes, %d rejected cuts, 0 leaked jobs)\n", report.Accepted, report.Rejected)
	return true
}

// predictSweep runs the live-session predict truncation sweep.
func (c console) predictSweep() bool {
	report, err := check.SessionPredictTruncationSweep(check.RandomRecords(9, 40), "PPM-hyb")
	if err != nil {
		fmt.Fprintf(c.stderr, "FAIL predict sweep: %v\n", err)
		return false
	}
	fmt.Fprintf(c.stdout, "ok   predict sweep (%d clean prefixes, %d cut or rejected streams, 0 leaked goroutines)\n", report.Accepted, report.Rejected)
	return true
}
