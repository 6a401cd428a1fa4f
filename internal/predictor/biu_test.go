package predictor

import (
	"bytes"
	"testing"

	"repro/internal/counter"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestBIUEnsureInitialState(t *testing.T) {
	b := NewBIU(counter.Normal, 0)
	e := b.Ensure(0x1000)
	if e == nil {
		t.Fatal("Ensure returned nil")
	}
	if e.Sel.Selected() != counter.PIB {
		t.Error("fresh BIU entry must select PIB (Strongly PIB init)")
	}
	if e.MT {
		t.Error("fresh BIU entry should not be MT")
	}
	if b.Ensure(0x1000) != e {
		t.Error("Ensure is not idempotent")
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestBIUObserve(t *testing.T) {
	b := NewBIU(counter.Normal, 0)
	b.Observe(trace.Record{PC: 0x2000, Class: trace.CondDirect})
	if b.Lookup(0x2000) != nil {
		t.Error("conditional branch allocated a BIU entry")
	}
	b.Observe(trace.Record{PC: 0x3000, Class: trace.IndirectJmp, MT: true})
	e := b.Lookup(0x3000)
	if e == nil || !e.MT {
		t.Fatal("MT indirect branch not recorded in the BIU")
	}
	// The MT bit is sticky: a later ST-looking execution does not clear it.
	b.Observe(trace.Record{PC: 0x3000, Class: trace.IndirectJmp, MT: false})
	if !b.Lookup(0x3000).MT {
		t.Error("MT annotation bit was cleared")
	}
}

func TestBIUBoundedEviction(t *testing.T) {
	b := NewBIU(counter.Normal, 4)
	for pc := uint64(0); pc < 10; pc++ {
		b.Ensure(pc * 4)
	}
	if b.Len() != 4 {
		t.Errorf("bounded BIU Len = %d, want 4", b.Len())
	}
	if b.Evictions() != 6 {
		t.Errorf("Evictions = %d, want 6", b.Evictions())
	}
	// FIFO: the oldest six are gone, the newest four remain.
	for pc := uint64(0); pc < 6; pc++ {
		if b.Lookup(pc*4) != nil {
			t.Errorf("evicted entry %#x still present", pc*4)
		}
	}
	for pc := uint64(6); pc < 10; pc++ {
		if b.Lookup(pc*4) == nil {
			t.Errorf("recent entry %#x missing", pc*4)
		}
	}
}

func TestBIUReEnsureEvicted(t *testing.T) {
	b := NewBIU(counter.Normal, 2)
	b.Ensure(0x10).MT = true
	b.Ensure(0x20)
	b.Ensure(0x30) // evicts 0x10
	if b.Lookup(0x10) != nil {
		t.Fatal("0x10 should have been evicted")
	}
	// Re-Ensure of an evicted PC allocates a fresh entry: the sticky MT bit
	// and any counter training died with the evicted entry, as they would in
	// a finite hardware table.
	e := b.Ensure(0x10)
	if e.MT {
		t.Error("re-Ensured entry kept state from before its eviction")
	}
	if e.Sel.Selected() != counter.PIB {
		t.Error("re-Ensured entry must restart at Strongly PIB")
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	// The re-inserted PC joins the back of the FIFO: 0x20 is now the oldest
	// and is the next victim.
	if b.Lookup(0x20) != nil {
		t.Error("re-Ensure did not evict the FIFO-oldest entry 0x20")
	}
	if b.Lookup(0x30) == nil {
		t.Error("0x30 evicted out of FIFO order")
	}
}

func TestBIUEvictionCounterAccuracy(t *testing.T) {
	b := NewBIU(counter.Normal, 3)
	for pc := uint64(1); pc <= 3; pc++ {
		b.Ensure(pc << 4)
	}
	if got := b.Evictions(); got != 0 {
		t.Fatalf("Evictions = %d before the table filled, want 0", got)
	}
	// Re-Ensure of live entries must not count as eviction traffic.
	for pc := uint64(1); pc <= 3; pc++ {
		b.Ensure(pc << 4)
	}
	if got := b.Evictions(); got != 0 {
		t.Errorf("Evictions = %d after re-Ensure of live entries, want 0", got)
	}
	// Each new distinct PC beyond the limit displaces exactly one entry.
	for pc := uint64(4); pc <= 8; pc++ {
		b.Ensure(pc << 4)
	}
	if got := b.Evictions(); got != 5 {
		t.Errorf("Evictions = %d, want 5", got)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

func TestBIUUnboundedKeepsInsertionOrder(t *testing.T) {
	b := NewBIU(counter.Normal, 0)
	for pc := uint64(0); pc < 100; pc++ {
		b.Ensure(pc * 4)
	}
	if b.Len() != 100 {
		t.Errorf("Len = %d, want 100", b.Len())
	}
	if b.Evictions() != 0 {
		t.Errorf("unbounded BIU reported %d evictions", b.Evictions())
	}
	// The insertion queue covers exactly the live entries, oldest first:
	// it is the deterministic serialization order for state snapshots.
	if len(b.order) != b.Len() {
		t.Errorf("order tracks %d slots for %d live entries", len(b.order), b.Len())
	}
	for i, pc := range b.order {
		if pc != uint64(i)*4 {
			t.Fatalf("order[%d] = %#x, want %#x", i, pc, uint64(i)*4)
		}
	}
}

func TestBIUReset(t *testing.T) {
	b := NewBIU(counter.PIBBiased, 2)
	b.Ensure(4)
	b.Ensure(8)
	b.Ensure(12)
	b.Reset()
	if b.Len() != 0 || b.Evictions() != 0 {
		t.Error("Reset did not clear state")
	}
	if b.Lookup(4) != nil {
		t.Error("entry survived Reset")
	}
}

func TestBIUModePropagates(t *testing.T) {
	// Three consecutive mispredictions from the initial Strongly-PIB state
	// end at Strongly PIB under the biased machine (3->2->1->3) but at
	// Weakly PIB under the normal machine (3->2->1->2).
	biased := NewBIU(counter.PIBBiased, 0).Ensure(0x10)
	normal := NewBIU(counter.Normal, 0).Ensure(0x10)
	for i := 0; i < 3; i++ {
		biased.Sel.Update(false)
		normal.Sel.Update(false)
	}
	if biased.Sel.State() != counter.StronglyPIB {
		t.Errorf("biased BIU counter state = %s, want Strongly PIB",
			counter.StateName(biased.Sel.State()))
	}
	if normal.Sel.State() != counter.WeaklyPIB {
		t.Errorf("normal BIU counter state = %s, want Weakly PIB",
			counter.StateName(normal.Sel.State()))
	}
}

// TestBoundedBIUChurnDoesNotAllocate pins the finite-BIU sweep's steady
// state: a bounded BIU cycling through more branches than it holds evicts
// and re-inserts on every touch, and neither the table nor the FIFO ring
// may allocate doing it.
func TestBoundedBIUChurnDoesNotAllocate(t *testing.T) {
	b := NewBIU(counter.Normal, 8)
	churn := func() {
		for pc := uint64(0); pc < 64; pc++ {
			if e := b.Ensure(0x1000 + pc*16); pc%3 == 0 {
				e.MT = true
			}
		}
	}
	churn() // warm: the table and the ring reach their final size
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Errorf("bounded BIU churn allocates %.1f times per 64 touches, want 0", avg)
	}
	if b.Len() != 8 || b.Evictions() == 0 {
		t.Fatalf("churn loop did not evict: Len %d, Evictions %d", b.Len(), b.Evictions())
	}
}

// TestBIUHomeResistsCraftedAddresses feeds an unbounded BIU address sets
// built to collide under simple multiplicative hashing — x/φ·2⁶⁴ for small
// x, which a fixed Fibonacci hash sends to slot 0 at every table size;
// addresses differing only above bit 40; a dense 16-byte stride — and
// checks that the table stays a hash table: every entry sits a short probe
// from its home slot. Under an unkeyed hash the first set would put all
// 16k entries in one probe run, so inserting them would cost O(n²).
func TestBIUHomeResistsCraftedAddresses(t *testing.T) {
	const n = 1 << 14 // fills the table to exactly half at 2n slots
	const fib = 0x9E3779B97F4A7C15
	inv := uint64(fib) // Newton's iteration for fib⁻¹ mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - fib*inv
	}
	sets := map[string]func(i uint64) uint64{
		"fibonacci-home-0": func(i uint64) uint64 { return inv * (i + 1) },
		"high-bits-only":   func(i uint64) uint64 { return 0x400000 | i<<40 },
		"stride-16":        func(i uint64) uint64 { return 0x1000 + i<<4 },
	}
	for name, pcOf := range sets {
		b := NewBIU(counter.Normal, 0)
		for i := uint64(0); i < n; i++ {
			b.Ensure(pcOf(i))
		}
		if b.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, b.Len(), n)
		}
		mask := uint64(len(b.slots) - 1)
		var total, longest uint64
		for i, s := range b.slots {
			if !s.used {
				continue
			}
			d := (uint64(i) - b.home(s.pc)) & mask
			total += d
			longest = max(longest, d)
		}
		// A random hash at load 1/2 averages about half a slot of
		// displacement and rarely exceeds 60; the bounds leave wide margin.
		if mean := float64(total) / n; mean > 2 || longest > 128 {
			t.Errorf("%s: mean displacement %.2f, longest %d over %d entries in %d slots",
				name, mean, longest, n, len(b.slots))
		}
	}
}

// modelBIU is the obviously-correct BIU the flat table is checked against:
// a map of entries plus a slice FIFO of insertion order.
type modelBIU struct {
	mode      counter.SelectionMode
	limit     int
	entries   map[uint64]*BIUEntry
	order     []uint64
	evictions uint64
}

func (m *modelBIU) ensure(pc uint64) *BIUEntry {
	if e, ok := m.entries[pc]; ok {
		return e
	}
	e := &BIUEntry{Sel: counter.NewSelection(m.mode)}
	m.entries[pc] = e
	m.order = append(m.order, pc)
	if m.limit > 0 && len(m.order) > m.limit {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
		m.evictions++
	}
	return e
}

// save writes the model in the SaveState section layout.
func (m *modelBIU) save() []byte {
	w := state.NewWriter()
	w.Begin(state.SecBIU)
	w.U8(uint8(m.mode))
	w.U64(uint64(m.limit))
	w.U64(m.evictions)
	w.U64(uint64(len(m.order)))
	for _, pc := range m.order {
		e := m.entries[pc]
		w.U64(pc)
		w.Bool(e.MT)
		w.U8(e.Sel.State())
	}
	w.End()
	return w.Bytes()
}

// TestBIUMatchesMapModel drives the flat table and the map model through
// the same random Ensure sequence over more than 10k distinct branches —
// enough to grow the table many times and, when bounded, to evict on most
// touches, exercising backward-shift deletion under churn. Lookup (of the
// touched branch and of a random one), Len and Evictions must agree after
// every step, and so must the SaveState bytes: at every step while the
// model holds at most 256 entries, and every 16th step and at the end once
// it is larger.
func TestBIUMatchesMapModel(t *testing.T) {
	const distinct = 16000
	for _, limit := range []int{0, 1, 8, 100} {
		rng := workload.NewRNG(uint64(limit) + 1)
		pcs := make([]uint64, distinct)
		for i := range pcs {
			// 16-byte-aligned, clustered addresses like real code's,
			// each with random high bits.
			pcs[i] = uint64(i)*16 + rng.Uint64()<<40
		}
		b := NewBIU(counter.PIBBiased, limit)
		m := &modelBIU{mode: counter.PIBBiased, limit: limit, entries: map[uint64]*BIUEntry{}}
		w := state.NewWriter()
		for step := 0; step < 3*distinct; step++ {
			// Half the touches revisit a small hot set, so entries are both
			// hit and evicted while new branches keep arriving.
			pc := pcs[rng.Intn(distinct)]
			if rng.Bool(0.5) {
				pc = pcs[rng.Intn(limit+2)]
			}
			got, want := b.Ensure(pc), m.ensure(pc)
			if *got != *want {
				t.Fatalf("limit %d step %d: Ensure(%#x) = %+v, model %+v", limit, step, pc, *got, *want)
			}
			// Train the entry through both pointers, as PPM does between
			// Predict and Update.
			mt, correct := rng.Bool(0.3), rng.Bool(0.5)
			for _, e := range []*BIUEntry{got, want} {
				e.MT = e.MT || mt
				e.Sel.Update(correct)
			}
			probe := pcs[rng.Intn(distinct)]
			if e, me := b.Lookup(probe), m.entries[probe]; (e == nil) != (me == nil) || (e != nil && *e != *me) {
				t.Fatalf("limit %d step %d: Lookup(%#x) = %v, model %v", limit, step, probe, e, me)
			}
			if b.Len() != len(m.entries) || b.Evictions() != m.evictions {
				t.Fatalf("limit %d step %d: Len %d Evictions %d, model %d %d",
					limit, step, b.Len(), b.Evictions(), len(m.entries), m.evictions)
			}
			if len(m.entries) <= 256 || step%16 == 0 || step == 3*distinct-1 {
				w.Reset()
				b.SaveState(w)
				if !bytes.Equal(w.Bytes(), m.save()) {
					t.Fatalf("limit %d step %d: SaveState bytes differ from the model", limit, step)
				}
			}
		}
		if limit == 0 && b.Len() < 10000 {
			t.Fatalf("unbounded run reached only %d distinct branches", b.Len())
		}
	}
}

// TestBIULoadStateRoundTrip restores a churned bounded BIU and a large
// unbounded one into fresh BIUs and into themselves: the bytes must
// survive, the restored FIFO must evict in the same order, and a snapshot
// naming one branch twice must be rejected.
func TestBIULoadStateRoundTrip(t *testing.T) {
	for _, limit := range []int{0, 8} {
		src := NewBIU(counter.Normal, limit)
		for pc := uint64(0); pc < 300; pc++ {
			src.Ensure(pc * 16).MT = pc%2 == 0
		}
		data := saveBIU(src)
		for _, dst := range []*BIU{NewBIU(counter.Normal, limit), src} {
			if err := loadBIU(dst, data); err != nil {
				t.Fatalf("limit %d: LoadState: %v", limit, err)
			}
			if !bytes.Equal(saveBIU(dst), data) {
				t.Fatalf("limit %d: restored BIU re-serializes differently", limit)
			}
		}
		fresh := NewBIU(counter.Normal, limit)
		if err := loadBIU(fresh, data); err != nil {
			t.Fatal(err)
		}
		for pc := uint64(300); pc < 320; pc++ {
			src.Ensure(pc * 16)
			fresh.Ensure(pc * 16)
		}
		if !bytes.Equal(saveBIU(src), saveBIU(fresh)) {
			t.Fatalf("limit %d: restored BIU evicts in a different order", limit)
		}
	}

	dup := state.SaveBytes(writeFunc(func(w *state.Writer) {
		w.Begin(state.SecBIU)
		w.U8(uint8(counter.Normal))
		w.U64(0) // limit
		w.U64(0) // evictions
		w.U64(2) // entries
		for i := 0; i < 2; i++ {
			w.U64(0x40)
			w.Bool(false)
			w.U8(counter.StronglyPIB)
		}
		w.End()
	}))
	if err := loadBIU(NewBIU(counter.Normal, 0), dup); err == nil {
		t.Error("LoadState accepted a snapshot naming one branch twice")
	}
}

// biuSnap adapts a BIU's section codec to state.Snapshotter.
type biuSnap struct{ b *BIU }

func (s biuSnap) Snapshot(w *state.Writer)      { s.b.SaveState(w) }
func (s biuSnap) Restore(r *state.Reader) error { return s.b.LoadState(r) }

// writeFunc is a Snapshotter that writes hand-built sections.
type writeFunc func(w *state.Writer)

func (f writeFunc) Snapshot(w *state.Writer)    { f(w) }
func (f writeFunc) Restore(*state.Reader) error { return nil }

func saveBIU(b *BIU) []byte { return state.SaveBytes(biuSnap{b}) }

func loadBIU(b *BIU, data []byte) error { return state.LoadBytes(biuSnap{b}, data) }
