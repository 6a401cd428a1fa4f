// Package check is the repository's differential-oracle correctness
// harness. For every predictor family of Figures 6 and 7 it keeps a naive,
// obviously-correct reference implementation — maps instead of arrays,
// bit-slice hashes instead of shift tricks, histories recomputed from
// scratch instead of incrementally maintained registers — and runs it in
// lock-step against the optimized simulator over randomized traces. Any
// step where the two disagree on the (target, valid) prediction tuple is a
// bug in one of the two; the harness shrinks the trace to a minimal
// reproduction and the corpus under testdata/ pins every bug ever found.
//
// The package also hosts the metamorphic property runner (equivalences the
// simulator must satisfy: same-seed byte identity, cache and parallelism
// invariance, served-versus-serial agreement) and, in the faultio
// subpackage, the I/O fault-injection layer used to drive trace decoding
// and the ppmserved upload path through every truncation offset.
//
// Everything here is measurement equipment, not simulated hardware, so it
// deliberately trades speed for transparency; nothing in this package is on
// the simulator's hot path.
package check

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/twolevel"
)

// Families lists the bench predictor labels the harness covers: every
// label the optimized registry accepts. The differential oracle adds
// ppmVariants; the block and snapshot oracles add stateExtensions.
func Families() []string { return bench.PredictorNames() }

// ppmVariants are check-local labels for PPM-hyb configurations the
// experiments run outside the paper grid: the low-order SFSXS select of the
// -ext variants study, and a BIU bounded to 8 entries as in the finite-BIU
// sweep, small enough that the oracles' random traces overflow it. Every
// lock-step oracle covers them.
var ppmVariants = []string{"PPM-hyb-low", "PPM-hyb-biu8"}

// ppmVariant returns the configuration behind a ppmVariants label.
func ppmVariant(name string) (core.Config, bool) {
	cfg := core.DefaultConfig(core.Hybrid)
	cfg.Name = name
	switch name {
	case "PPM-hyb-low":
		cfg.LowSelect = true
	case "PPM-hyb-biu8":
		cfg.BIULimit = 8
	default:
		return core.Config{}, false
	}
	return cfg, true
}

// refPaperGAp restates the Section 5 GAp configuration for the reference
// side. The literals are intentionally duplicated from the optimized
// constructors: the reference pins the paper's configuration, so a drift in
// either copy shows up as a divergence.
func refPaperGAp() twolevel.GApConfig {
	return twolevel.GApConfig{
		Name:          "GAp",
		Entries:       2048,
		PHTs:          2,
		Assoc:         1,
		PathLength:    5,
		BitsPerTarget: 2,
		HistoryStream: history.IndirectBranches,
		Indexing:      twolevel.GShare,
	}
}

// refPaperDualPath restates the Section 5 Dpath configuration.
func refPaperDualPath() twolevel.DualPathConfig {
	return twolevel.DualPathConfig{
		Name:      "Dpath",
		Selectors: 1024,
		Short: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         1,
			PathLength:    1,
			BitsPerTarget: 24,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
		Long: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         1,
			PathLength:    3,
			BitsPerTarget: 8,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
	}
}

// refPaperCascadeMain restates the Section 5 Cascade main-predictor
// configuration (tagged 4-way components, path lengths 4 and 6).
func refPaperCascadeMain() twolevel.DualPathConfig {
	return twolevel.DualPathConfig{
		Name:      "Cascade-main",
		Selectors: 1024,
		Short: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         4,
			Tagged:        true,
			PathLength:    4,
			BitsPerTarget: 6,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
		Long: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         4,
			Tagged:        true,
			PathLength:    6,
			BitsPerTarget: 4,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
	}
}

// refPaperCascadeMainU restates the Cascade-u main-predictor configuration:
// the Section 5 Cascade tables with u-bit replacement and the ITTAGE
// graceful-reset period.
func refPaperCascadeMainU() twolevel.DualPathConfig {
	return twolevel.DualPathConfig{
		Name:      "Cascade-u-main",
		Selectors: 1024,
		Short: twolevel.GApConfig{
			Entries:           1024,
			PHTs:              1,
			Assoc:             4,
			Tagged:            true,
			PathLength:        4,
			BitsPerTarget:     6,
			HistoryBits:       24,
			HistoryStream:     history.MTIndirectBranches,
			Indexing:          twolevel.ReverseInterleave,
			Useful:            true,
			UsefulResetPeriod: 2048,
		},
		Long: twolevel.GApConfig{
			Entries:           1024,
			PHTs:              1,
			Assoc:             4,
			Tagged:            true,
			PathLength:        6,
			BitsPerTarget:     4,
			HistoryBits:       24,
			HistoryStream:     history.MTIndirectBranches,
			Indexing:          twolevel.ReverseInterleave,
			Useful:            true,
			UsefulResetPeriod: 2048,
		},
	}
}

// NewReference builds the naive reference for a Figure 6/7 predictor label,
// configured exactly as bench.NewPredictor configures the optimized
// implementation. Returns false for unknown labels.
func NewReference(name string) (predictor.IndirectPredictor, bool) {
	switch name {
	case "BTB":
		return NewRefBTB(2048), true
	case "BTB2b":
		return NewRefBTB2b(2048), true
	case "GAp":
		return NewRefGAp(refPaperGAp()), true
	case "TC-PIB":
		return NewRefTargetCache(twolevel.TargetCacheConfig{
			Name:          "TC-PIB",
			Entries:       2048,
			HistoryBits:   11,
			BitsPerTarget: 2,
			HistoryStream: history.IndirectBranches,
		}), true
	case "Dpath":
		return NewRefDualPath(refPaperDualPath()), true
	case "Cascade":
		return NewRefCascade(128, false, refPaperCascadeMain()), true
	case "PPM-hyb":
		return NewRefPPM(core.DefaultConfig(core.Hybrid)), true
	case "PPM-PIB":
		return NewRefPPM(core.DefaultConfig(core.PIBOnly)), true
	case "PPM-hyb-biased":
		return NewRefPPM(core.DefaultConfig(core.HybridBiased)), true
	case "ITTAGE":
		return NewRefITTAGE(), true
	case "PPM-hyb-low", "PPM-hyb-biu8":
		cfg, _ := ppmVariant(name)
		return NewRefPPM(cfg), true
	case "Cascade-u":
		return NewRefCascadeNamed("Cascade-u", 128, false, refPaperCascadeMainU()), true
	}
	return nil, false
}
