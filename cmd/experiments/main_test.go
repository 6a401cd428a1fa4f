package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/tracecache"
)

// renderExperiments runs the named registry entries into w under the given
// worker count and trace cache, at the given per-run event count.
func renderExperiments(w io.Writer, names []string, workers int, cache *tracecache.Cache, events int) {
	e := &env{
		out:   w,
		suite: bench.Sized(events),
		cache: cache,
		pool:  sched.New(workers),
	}
	for _, n := range names {
		for _, ex := range experiments {
			if ex.name == n {
				ex.run(e)
			}
		}
	}
}

// groupNames returns the registry entries of one group in canonical order.
func groupNames(group string) []string {
	var names []string
	for _, ex := range experiments {
		if ex.group == group {
			names = append(names, ex.name)
		}
	}
	return names
}

// TestGoldenOutputs pins the checked-in reproduction to the code: the paper
// group at the default scale must render experiments_output.txt (`experiments
// -all`) byte for byte, and the extension group at 60000 events must render
// experiments_ext_output.txt (`experiments -ext -events 60000`). The files
// change only when regenerated on purpose, so any drift in trace
// generation, the block engine or a predictor shows up here.
func TestGoldenOutputs(t *testing.T) {
	for _, g := range []struct {
		group, file string
		events      int
	}{
		{"paper", "experiments_output.txt", bench.DefaultEvents},
		{"extension", "experiments_ext_output.txt", 60000},
	} {
		t.Run(g.group, func(t *testing.T) {
			if g.group == "extension" && race.Enabled {
				t.Skip("the extension grid is too slow under the race detector; the paper grid covers the engine")
			}
			want, err := os.ReadFile(filepath.Join("..", "..", g.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			renderExperiments(&got, groupNames(g.group), 0, tracecache.New(512<<20), g.events)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s group output differs from %s\n--- got ---\n%s", g.group, g.file, got.String())
			}
		})
	}
}

// TestParallelDeterminism is the scheduler's core guarantee: every
// experiment renders byte-identically at every worker count, and every
// suite trace is generated exactly once per process regardless of how many
// analyses consume it.
func TestParallelDeterminism(t *testing.T) {
	const events = 2000
	names := allExperimentNames() // every predictor family crosses the block fast paths
	suiteLen := uint64(len(bench.Sized(events)))

	var serial bytes.Buffer
	serialCache := tracecache.New(0)
	renderExperiments(&serial, names, 1, serialCache, events)
	if serial.Len() == 0 {
		t.Fatal("serial run produced no output")
	}
	serialHits := serialCache.Stats().Hits

	for _, workers := range []int{2, 8} {
		cache := tracecache.New(0)
		var par bytes.Buffer
		renderExperiments(&par, names, workers, cache, events)
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("workers=%d: output differs from serial run\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, serial.String(), workers, par.String())
		}
		st := cache.Stats()
		if st.Generated != suiteLen {
			t.Errorf("workers=%d: generated %d traces, want %d (each suite run exactly once)",
				workers, st.Generated, suiteLen)
		}
		if st.Hits != serialHits {
			t.Errorf("workers=%d: cache hits = %d, want the serial run's %d (every later analysis recalls every run)",
				workers, st.Hits, serialHits)
		}
	}
}

// TestDisabledCacheMatchesSerial pins a disabled trace cache, which
// regenerates every trace per analysis, to the cached serial output at one
// worker and at four.
func TestDisabledCacheMatchesSerial(t *testing.T) {
	const events = 2000
	names := allExperimentNames()
	var cached bytes.Buffer
	renderExperiments(&cached, names, 1, tracecache.New(0), events)
	for _, workers := range []int{1, 4} {
		var uncached bytes.Buffer
		renderExperiments(&uncached, names, workers, tracecache.Disabled(), events)
		if !bytes.Equal(cached.Bytes(), uncached.Bytes()) {
			t.Errorf("disabled-cache output at -j %d differs from cached serial output", workers)
		}
	}
}

// allExperimentNames returns every registry entry in canonical order.
func allExperimentNames() []string {
	names := make([]string, 0, len(experiments))
	for _, ex := range experiments {
		names = append(names, ex.name)
	}
	return names
}

// TestRunArgumentErrors pins the exit-2 paths of the argument handling: a
// -run filter that matches no run is rejected once, before any experiment
// renders an empty table (every experiment, not only warmstart's
// cross-process modes), and unknown flags (the retired -tracecache among
// them) and unknown experiment names are usage errors.
func TestRunArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "nomatch", "-cond"}, "-run filter matched no runs"},
		{[]string{"-run", "nomatch", "-fig6"}, "-run filter matched no runs"},
		{[]string{"-run", "nomatch", "-savestate", "unused.bin"}, "-run filter matched no runs"},
		{[]string{"-tracecache", "-fig6"}, "flag provided but not defined: -tracecache"},
		{[]string{"nosuch"}, `unknown experiment "nosuch"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) rendered output:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("run(%q) stderr = %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}
