package bench

import (
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// sharedTraces is the process-wide cache behind Traces. Benchmarks and
// tests across the module share it, so each suite run is synthesized at
// most once per process no matter how many harnesses replay it. 1 GiB
// comfortably holds the full suite at benchmark scale.
var sharedTraces = tracecache.New(1 << 30)

// Traces materializes cfg's trace blocks and summary through the module's
// shared trace cache. The returned blocks are shared across callers and
// must be treated as immutable.
func Traces(cfg workload.Config) ([]trace.Block, workload.Summary) {
	return sharedTraces.Get(cfg)
}
