// Package repro reproduces Kalamatianos & Kaeli, "Predicting Indirect
// Branches via Data Compression" (MICRO-31, 1998): a Prediction-by-
// Partial-Matching (PPM) indirect branch target predictor with dynamic
// per-branch selection of path-based correlation type, evaluated against
// every previously published indirect-branch predictor under a fixed
// 2K-entry hardware budget.
//
// The public API lives in the indirect subpackage; the experiment harness
// in cmd/experiments regenerates every table and figure of the paper's
// evaluation section. See README.md for the tour, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
//
// The repository's one benchmark is `bash perfbench/run.sh` (described by
// BENCHMARK.json): the experiment grid, served jobs and live sessions on
// the suite traces, with a per-layer ledger and a host stamp.
package repro
