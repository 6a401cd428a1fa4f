package bench

import (
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// sharedTraces is the cache behind traces. The package's tests share it, so
// each suite run is synthesized at most once per test binary however many
// tests replay it. 1 GiB comfortably holds the full suite at test scale.
var sharedTraces = tracecache.New(1 << 30)

// traces materializes cfg's trace blocks and summary through the tests'
// shared trace cache. The returned blocks are shared across callers and
// must be treated as immutable.
func traces(cfg workload.Config) ([]trace.Block, workload.Summary) {
	return sharedTraces.Get(cfg)
}
