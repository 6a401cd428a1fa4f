package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/hashing"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// The corpus is the harness's long-term memory: every bug the differential
// oracle or the satellite audits ever found is checked in as a minimized
// seed (a JSON descriptor plus, for most kinds, an IBT2 trace) and replayed
// by `go test` forever after. A seed that stops passing is a regression of
// a previously fixed bug.

// Seed describes one corpus entry. Kind selects the replay procedure:
//
//   - "diff": replay the companion trace through DiffFamily for Family
//     (or every family when Family is empty) and require agreement.
//   - "sfsx-longpath": hash the companion trace's targets as one long SFSX
//     path; flipping bit Params["flipbit"] of the last target must change
//     the hash (the long-path contribution-loss bug).
//   - "readall-hint": re-encode the companion trace, then decode it with
//     an adversarial ReadAll size hint of Params["hint"] records; every
//     record must come back and the result capacity must stay bounded
//     (the unclamped-preallocation OOM bug).
//   - "tracecache-oversize": generate a small and an oversized workload
//     (Params: smallseed/smallevents/bigseed/bigevents) under a budget of
//     Params["budgetsmalls"] small entries; the oversized trace must be
//     served correctly without evicting residents (the LRU-thrash bug).
//   - "blocks": replay the companion trace through DiffBlocks for Family
//     (or every family when Family is empty); the block engine must agree
//     with the record engine at every probed block capacity.
//   - "state": replay the companion trace through DiffState for Family
//     (or every snapshot family when Family is empty); snapshotting and
//     restoring at every probed cut cadence must match the uncut run.
type Seed struct {
	Name   string           `json:"name"`
	Family string           `json:"family,omitempty"`
	Kind   string           `json:"kind"`
	Note   string           `json:"note,omitempty"`
	Params map[string]int64 `json:"params,omitempty"`
}

// SeedEntry is a loaded corpus entry: the descriptor plus its decoded
// companion trace (nil for kinds that carry no trace).
type SeedEntry struct {
	Seed Seed
	Recs []trace.Record
}

// WriteSeed persists a seed into dir: <name>.json always, <name>.ibt2 when
// recs is non-nil.
func WriteSeed(dir string, s Seed, recs []trace.Record) error {
	if s.Name == "" || strings.ContainsAny(s.Name, "/\\") {
		return fmt.Errorf("check: invalid seed name %q", s.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	meta = append(meta, '\n')
	if err := os.WriteFile(filepath.Join(dir, s.Name+".json"), meta, 0o644); err != nil {
		return err
	}
	if recs == nil {
		return nil
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, s.Name+".ibt2"), buf.Bytes(), 0o644)
}

// LoadSeeds reads every seed in dir, sorted by name so replay order is
// deterministic. A missing directory is an empty corpus, not an error.
func LoadSeeds(dir string) ([]SeedEntry, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range entries {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			names = append(names, strings.TrimSuffix(de.Name(), ".json"))
		}
	}
	sort.Strings(names)
	seeds := make([]SeedEntry, 0, len(names))
	for _, name := range names {
		meta, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			return nil, err
		}
		var s Seed
		if err := json.Unmarshal(meta, &s); err != nil {
			return nil, fmt.Errorf("check: corpus seed %s: %w", name, err)
		}
		e := SeedEntry{Seed: s}
		data, err := os.ReadFile(filepath.Join(dir, name+".ibt2"))
		if err == nil {
			tr, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("check: corpus trace %s: %w", name, err)
			}
			if e.Recs, err = tr.ReadAll(); err != nil {
				return nil, fmt.Errorf("check: corpus trace %s: %w", name, err)
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		seeds = append(seeds, e)
	}
	return seeds, nil
}

// param reads a seed parameter with a default.
func (s Seed) param(key string, def int64) int64 {
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// ReplaySeed re-runs one corpus entry and returns an error if the bug it
// pins has resurfaced.
func ReplaySeed(e SeedEntry) error {
	switch e.Seed.Kind {
	case "diff":
		families := Families()
		if e.Seed.Family != "" {
			families = []string{e.Seed.Family}
		}
		for _, fam := range families {
			d, err := DiffFamily(fam, e.Recs)
			if err != nil {
				return fmt.Errorf("seed %s: %w", e.Seed.Name, err)
			}
			if d != nil {
				return fmt.Errorf("seed %s: %s", e.Seed.Name, d)
			}
		}
		return nil

	case "blocks":
		families := Families()
		if e.Seed.Family != "" {
			families = []string{e.Seed.Family}
		}
		for _, fam := range families {
			d, err := DiffBlocks(fam, e.Recs)
			if err != nil {
				return fmt.Errorf("seed %s: %w", e.Seed.Name, err)
			}
			if d != nil {
				return fmt.Errorf("seed %s: %s", e.Seed.Name, d)
			}
		}
		return nil

	case "state":
		families := StateFamilies()
		if e.Seed.Family != "" {
			families = []string{e.Seed.Family}
		}
		for _, fam := range families {
			d, err := DiffState(fam, e.Recs)
			if err != nil {
				return fmt.Errorf("seed %s: %w", e.Seed.Name, err)
			}
			if d != nil {
				return fmt.Errorf("seed %s: %s", e.Seed.Name, d)
			}
		}
		return nil

	case "sfsx-longpath":
		if len(e.Recs) == 0 {
			return fmt.Errorf("seed %s: no trace", e.Seed.Name)
		}
		selBits := uint(e.Seed.param("selbits", 10))
		foldBits := uint(e.Seed.param("foldbits", 5))
		flipBit := uint(e.Seed.param("flipbit", 4))
		path := make([]uint64, len(e.Recs))
		for i, r := range e.Recs {
			path[i] = r.Target
		}
		base := hashing.SFSX(path, selBits, foldBits)
		ref := refSFSX(path, selBits, foldBits)
		if base != ref {
			return fmt.Errorf("seed %s: SFSX=%#x disagrees with reference %#x", e.Seed.Name, base, ref)
		}
		path[len(path)-1] ^= 1 << flipBit
		if hashing.SFSX(path, selBits, foldBits) == base {
			return fmt.Errorf("seed %s: deepest path entry does not reach the SFSX hash", e.Seed.Name)
		}
		return nil

	case "readall-hint":
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return err
		}
		for _, r := range e.Recs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		r.SetSizeHint(int(e.Seed.param("hint", 1<<40)))
		got, err := r.ReadAll()
		if err != nil {
			return fmt.Errorf("seed %s: %w", e.Seed.Name, err)
		}
		if len(got) != len(e.Recs) {
			return fmt.Errorf("seed %s: decoded %d records, want %d", e.Seed.Name, len(got), len(e.Recs))
		}
		if maxCap := int(e.Seed.param("maxcap", 1<<21)); cap(got) > maxCap {
			return fmt.Errorf("seed %s: ReadAll preallocated cap %d > %d — hint clamp regressed", e.Seed.Name, cap(got), maxCap)
		}
		return nil

	case "tracecache-oversize":
		smallCfg := corpusWorkload(uint64(e.Seed.param("smallseed", 1)), int(e.Seed.param("smallevents", 100)))
		bigCfg := corpusWorkload(uint64(e.Seed.param("bigseed", 2)), int(e.Seed.param("bigevents", 4000)))
		smallBlks, _ := tracecache.Disabled().Get(smallCfg)
		c := tracecache.New(e.Seed.param("budgetsmalls", 3) * trace.BlocksBytes(smallBlks))
		c.Get(smallCfg)
		want, wantSum := bigCfg.Records()
		blks, gotSum := c.Get(bigCfg)
		got := trace.BlocksRecords(blks)
		if len(got) != len(want) || gotSum.Records != wantSum.Records {
			return fmt.Errorf("seed %s: oversized trace served %d records, want %d", e.Seed.Name, len(got), len(want))
		}
		st := c.Stats()
		if st.Oversize == 0 {
			return fmt.Errorf("seed %s: oversized trace became resident (stats %v)", e.Seed.Name, st)
		}
		if st.Evicted != 0 {
			return fmt.Errorf("seed %s: oversized trace evicted %d resident entries", e.Seed.Name, st.Evicted)
		}
		hitsBefore := st.Hits
		c.Get(smallCfg)
		if c.Stats().Hits != hitsBefore+1 {
			return fmt.Errorf("seed %s: resident small entry was flushed by the oversized trace", e.Seed.Name)
		}
		return nil
	}
	return fmt.Errorf("seed %s: unknown kind %q", e.Seed.Name, e.Seed.Kind)
}

// corpusWorkload is the fixed workload shape used by tracecache corpus
// seeds; only seed and event count vary per corpus entry.
func corpusWorkload(seed uint64, events int) workload.Config {
	return workload.Config{
		Name: "corpus", Seed: seed, Events: events,
		Sites: []workload.SiteSpec{
			{Label: "a", Class: trace.IndirectJmp, NumTargets: 4, Behavior: workload.Cyclic{}, Weight: 1},
			{Label: "b", Class: trace.IndirectJsr, NumTargets: 2, Behavior: workload.Uniform{}, Weight: 1},
		},
		CondPerEvent: 2,
	}
}
