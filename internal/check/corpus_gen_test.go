package check

import (
	"os"
	"testing"

	"repro/internal/hashing"
	"repro/internal/trace"
)

func TestGenerateCorpusSeeds(t *testing.T) {
	if os.Getenv("CHECK_GEN") == "" {
		t.Skip("generator")
	}
	dir := "testdata/corpus"

	// SFSX long-path repro: 70-entry path, deepest entry must reach the hash.
	long := make([]trace.Record, 70)
	for i := range long {
		long[i] = trace.Record{
			PC:     0x12000000 + uint64(i)*4,
			Target: hashing.Mix64(uint64(i)) &^ 3,
			Class:  trace.IndirectJmp, Taken: true, MT: true,
		}
	}
	if err := WriteSeed(dir, Seed{
		Name: "sfsx-longpath-70", Kind: "sfsx-longpath",
		Note:   "SFSX dropped contributions from path entries at index >= 64 (shift past the 64-bit accumulator); fixed by rotating contributions into place",
		Params: map[string]int64{"selbits": 10, "foldbits": 5, "flipbit": 4},
	}, long); err != nil {
		t.Fatal(err)
	}

	// ReadAll adversarial-hint repro: 3 records, trillion-record hint.
	tiny := []trace.Record{
		{PC: 0x1000, Target: 0x9000, Class: trace.IndirectJmp, Taken: true, MT: true},
		{PC: 0x1004, Target: 0x9010, Class: trace.IndirectJsr, Taken: true, MT: true},
		{PC: 0x9030, Target: 0x1008, Class: trace.Return, Taken: true},
	}
	if err := WriteSeed(dir, Seed{
		Name: "readall-hint-3rec", Kind: "readall-hint",
		Note:   "ReadAll preallocated make([]Record,0,hint) from an untrusted SetSizeHint; a multi-GiB claim over a 3-record stream OOMed before decoding a byte; fixed by clamping the initial capacity",
		Params: map[string]int64{"hint": 1 << 40, "maxcap": 1 << 21},
	}, tiny); err != nil {
		t.Fatal(err)
	}

	// Tracecache oversize repro.
	if err := WriteSeed(dir, Seed{
		Name: "tracecache-oversize", Kind: "tracecache-oversize",
		Note:   "an entry larger than the whole budget joined the LRU, flushing every smaller resident before being evicted itself; fixed by serving oversized traces without residency",
		Params: map[string]int64{"smallseed": 1, "smallevents": 100, "bigseed": 2, "bigevents": 4000, "budgetsmalls": 3},
	}, nil); err != nil {
		t.Fatal(err)
	}

	// Differential regression traces: small structured and adversarial
	// streams replayed through every family.
	if err := WriteSeed(dir, Seed{
		Name: "diff-workload-1", Kind: "diff",
		Note: "structured workload stream (RandomTrace seed 1), all families lock-step vs references",
	}, RandomTrace(1, 150)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeed(dir, Seed{
		Name: "diff-raw-2", Kind: "diff",
		Note: "raw adversarial stream (RandomRecords seed 2): tiny PC/target pools, hostile class/MT mixes",
	}, RandomRecords(2, 200)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeed(dir, Seed{
		Name: "diff-raw-3", Kind: "diff",
		Note: "raw adversarial stream (RandomRecords seed 3) including returns and jsr_coroutine records",
	}, RandomRecords(3, 200)); err != nil {
		t.Fatal(err)
	}

	// Preventive snapshot seed: an empty Family replays every family the
	// snapshot oracle covers, mirroring blocks-engine-identity.
	if err := WriteSeed(dir, Seed{
		Name: "state-engine-identity", Kind: "state",
		Note: "preventive seed: snapshot/restore at every probed cut cadence must match the uncut run for every snapshot family",
	}, RandomRecords(4, 300)); err != nil {
		t.Fatal(err)
	}
}
