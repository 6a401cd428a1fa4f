package tracecache

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// The GetBlocks tests pin the block-engine callers' name for Get to Get's
// contract: the same shared blocks, one generation per key, and a byte
// ledger that is exactly the columnar model of the resident blocks.

func TestGetBlocksSharesConversionAndAccountsColumnarBytes(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	b0, _ := c.Get(cfg)

	b1, s1 := c.GetBlocks(cfg)
	b2, s2 := c.GetBlocks(cfg)
	if &b1[0] != &b2[0] || &b1[0] != &b0[0] {
		t.Error("GetBlocks returned a different block slice than Get")
	}
	if s1.Records != s2.Records {
		t.Error("summaries differ between GetBlocks calls")
	}
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("generated %d traces, want 1", st.Generated)
	}
	if want := trace.BlocksBytes(b1); st.Bytes != want {
		t.Errorf("Bytes = %d, want columnar model %d", st.Bytes, want)
	}
}

func TestGetBlocksEvictionSettlesBlockLedger(t *testing.T) {
	cfgA, cfgB := testConfig(1, 400), testConfig(2, 400)
	blksA, _ := New(0).GetBlocks(cfgA)
	perEntry := trace.BlocksBytes(blksA)

	// Budget fits one entry with slack but not two: caching B must evict A
	// and return every one of A's bytes to the ledger.
	c := New(perEntry + perEntry/2)
	c.GetBlocks(cfgA)
	c.GetBlocks(cfgB)
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no eviction under a one-entry budget (stats %v)", st)
	}
	if st.Entries != 1 {
		t.Errorf("%d resident entries after eviction, want 1", st.Entries)
	}
	blksB, _ := New(0).GetBlocks(cfgB)
	if want := trace.BlocksBytes(blksB); st.Bytes != want {
		t.Errorf("Bytes = %d after eviction, want survivor's %d", st.Bytes, want)
	}
}

func TestGetBlocksDisabledRegeneratesEachCall(t *testing.T) {
	c := Disabled()
	cfg := testConfig(1, 300)
	b1, _ := c.GetBlocks(cfg)
	b2, _ := c.GetBlocks(cfg)
	if &b1[0] == &b2[0] {
		t.Error("disabled cache shared block storage across calls")
	}
	st := c.Stats()
	if st.Generated != 2 || st.Misses != 2 {
		t.Errorf("stats = %v, want 2 generations and 2 misses", st)
	}
	if st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("disabled cache accounted residency: %v", st)
	}
}

func TestGetBlocksConcurrentSingleConversion(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	const goroutines = 8
	out := make([]*trace.Block, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			blks, _ := c.GetBlocks(cfg)
			out[g] = &blks[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if out[g] != out[0] {
			t.Fatalf("goroutine %d received a different block conversion", g)
		}
	}
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("%d generations under concurrent GetBlocks, want 1", st.Generated)
	}
	blks, _ := c.GetBlocks(cfg)
	if want := trace.BlocksBytes(blks); st.Bytes != want {
		t.Errorf("Bytes = %d after concurrent GetBlocks, want exactly one generation's %d", st.Bytes, want)
	}
}
