package check

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// metaEvents sizes the metamorphic quick pass: enough dispatches to fill
// histories and force evictions, small enough for every `go test`.
const metaEvents = 400

func metaConfigs(t *testing.T) []workload.Config {
	t.Helper()
	return []workload.Config{RandomConfig(21, metaEvents), RandomConfig(22, metaEvents)}
}

func TestSameSeedIdentity(t *testing.T) {
	for _, cfg := range metaConfigs(t) {
		if err := SameSeedIdentity(cfg); err != nil {
			t.Error(err)
		}
	}
}

func TestTraceCacheIdentity(t *testing.T) {
	// One-entry budget: the second cell evicts the first, so the property
	// covers miss, hit-after-generate and regenerate-after-evict paths.
	cfgs := metaConfigs(t)
	if err := TraceCacheIdentity(cfgs, bench.Figure6Predictors, oneEntryBudget(cfgs)); err != nil {
		t.Error(err)
	}
}

func TestWorkerIdentity(t *testing.T) {
	if err := WorkerIdentity(metaConfigs(t), bench.Figure7Predictors, 4); err != nil {
		t.Error(err)
	}
}

func TestServedVsSerial(t *testing.T) {
	if err := ServedVsSerial([]string{"troff.ped", "eqn"}, metaEvents, "fig6"); err != nil {
		t.Error(err)
	}
}

func TestSplitConcatIdentity(t *testing.T) {
	if err := SplitConcatIdentity([]string{"perl.exp", "gs.tig"}, metaEvents, "fig7"); err != nil {
		t.Error(err)
	}
}

func TestUploadVsSerial(t *testing.T) {
	if err := UploadVsSerial(RandomTrace(23, metaEvents), []string{"BTB", "Cascade", "PPM-hyb"}); err != nil {
		t.Error(err)
	}
}
