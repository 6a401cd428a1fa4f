package core

import (
	"repro/internal/counter"
	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/state"
)

// This file implements the state.Snapshotter contract for the PPM family.
// Entries are varint-coded with a 1-byte collapse for invalid slots, so a
// snapshot's size tracks table occupancy rather than capacity. Transient
// per-prediction scratch (the pending structs) is never encoded: snapshots
// are taken at record boundaries, where the next Predict rebuilds it.

// writeMarkovEntry appends one entry; invalid entries collapse to the
// valid bit alone.
func writeMarkovEntry(w *state.Writer, e *markovEntry) {
	w.Bool(e.valid)
	if !e.valid {
		return
	}
	w.U64(uint64(e.tag))
	w.U64(e.target)
	w.U8(e.hyst.Value())
}

// readMarkovEntry decodes one entry in place.
func readMarkovEntry(r *state.Reader, e *markovEntry) error {
	if !r.Bool() {
		*e = markovEntry{}
		return r.Err()
	}
	tag := r.U64()
	target := r.U64()
	raw := r.U8()
	if err := r.Err(); err != nil {
		return err
	}
	if tag > 0xFFFFFFFF {
		return state.Corruptf("markov entry tag %#x exceeds 32 bits", tag)
	}
	hyst, ok := counter.HysteresisFromValue(raw)
	if !ok {
		return state.Corruptf("markov entry hysteresis %d out of range", raw)
	}
	*e = markovEntry{valid: true, tag: uint32(tag), target: target, hyst: hyst}
	return nil
}

// Snapshot implements state.Snapshotter.
func (t *MarkovTable) Snapshot(w *state.Writer) {
	w.Begin(state.SecMarkov)
	w.U64(uint64(t.order))
	w.Bool(t.tagged)
	for i := range t.entries {
		writeMarkovEntry(w, &t.entries[i])
	}
	w.End()
}

// Restore implements state.Snapshotter, rebuilding the table in place.
func (t *MarkovTable) Restore(r *state.Reader) error {
	if err := r.Begin(state.SecMarkov); err != nil {
		return err
	}
	order := r.U64()
	tagged := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if order != uint64(t.order) || tagged != t.tagged {
		return state.Mismatchf("markov table order %d/tagged %v vs snapshot order %d/tagged %v",
			t.order, t.tagged, order, tagged)
	}
	for i := range t.entries {
		if err := readMarkovEntry(r, &t.entries[i]); err != nil {
			return err
		}
	}
	return r.End()
}

// Snapshot implements state.Snapshotter: the scalar section (configuration
// fingerprint, order-0 entry, component stats) followed by every Markov
// table, both history registers, and the BIU.
func (p *PPM) Snapshot(w *state.Writer) {
	w.Begin(state.SecPPM)
	w.U64(uint64(p.cfg.Order))
	w.U64(uint64(p.cfg.TargetBits))
	w.U64(uint64(p.cfg.FoldBits))
	w.U8(uint8(p.cfg.Mode))
	w.Bool(p.cfg.LowSelect)
	w.U64(uint64(p.cfg.BIULimit))
	w.Bool(p.cfg.Tagged)
	w.U8(p.cfg.ConfidenceThreshold)
	writeMarkovEntry(w, &p.zero)
	for _, v := range p.stats.Accesses {
		w.U64(v)
	}
	for _, v := range p.stats.Misses {
		w.U64(v)
	}
	w.End()
	for _, t := range p.tables {
		t.Snapshot(w)
	}
	p.pb.SaveState(w)
	p.pib.SaveState(w)
	p.biu.SaveState(w)
}

// Restore implements state.Snapshotter.
func (p *PPM) Restore(r *state.Reader) error {
	if err := r.Begin(state.SecPPM); err != nil {
		return err
	}
	order := r.U64()
	targetBits := r.U64()
	foldBits := r.U64()
	mode := Mode(r.U8())
	lowSelect := r.Bool()
	biuLimit := r.U64()
	tagged := r.Bool()
	confidence := r.U8()
	if err := r.Err(); err != nil {
		return err
	}
	if order != uint64(p.cfg.Order) || targetBits != uint64(p.cfg.TargetBits) ||
		foldBits != uint64(p.cfg.FoldBits) || mode != p.cfg.Mode ||
		lowSelect != p.cfg.LowSelect || biuLimit != uint64(p.cfg.BIULimit) ||
		tagged != p.cfg.Tagged || confidence != p.cfg.ConfidenceThreshold {
		return state.Mismatchf("PPM config %+v does not match snapshot fingerprint", p.cfg)
	}
	if err := readMarkovEntry(r, &p.zero); err != nil {
		return err
	}
	for i := range p.stats.Accesses {
		p.stats.Accesses[i] = r.U64()
	}
	for i := range p.stats.Misses {
		p.stats.Misses[i] = r.U64()
	}
	if err := r.End(); err != nil {
		return err
	}
	for _, t := range p.tables {
		if err := t.Restore(r); err != nil {
			return err
		}
	}
	if err := p.pb.LoadState(r); err != nil {
		return err
	}
	if err := p.pib.LoadState(r); err != nil {
		return err
	}
	rebuildIndex(&p.pbIdx, p.pb)
	rebuildIndex(&p.pibIdx, p.pib)
	return p.biu.LoadState(r)
}

// rebuildIndex re-derives an SFSXS register from its restored PHR by
// pushing the recorded targets oldest first; snapshots do not carry the
// register, so it is rebuilt rather than trusted.
func rebuildIndex(reg *hashing.SFSXSRegister, phr *history.PHR) {
	reg.Reset()
	for i := phr.Len() - 1; i >= 0; i-- {
		reg.Push(phr.Peek(i))
	}
}

// Snapshot implements state.Snapshotter: the filter section then the
// wrapped PPM.
func (f *FilteredPPM) Snapshot(w *state.Writer) {
	w.Begin(state.SecFiltered)
	w.U64(uint64(len(f.filter)))
	for i := range f.filter {
		e := &f.filter[i]
		w.Bool(e.valid)
		if e.valid {
			w.U64(e.tag)
			w.U64(e.target)
			w.U8(e.hyst.Value())
		}
	}
	w.U64(f.filterServed)
	w.U64(f.ppmServed)
	w.End()
	f.ppm.Snapshot(w)
}

// Restore implements state.Snapshotter.
func (f *FilteredPPM) Restore(r *state.Reader) error {
	if err := r.Begin(state.SecFiltered); err != nil {
		return err
	}
	if n := r.U64(); n != uint64(len(f.filter)) {
		if err := r.Err(); err != nil {
			return err
		}
		return state.Mismatchf("filter has %d entries, snapshot %d", len(f.filter), n)
	}
	for i := range f.filter {
		e := &f.filter[i]
		if !r.Bool() {
			*e = filterEntry{}
			continue
		}
		tag := r.U64()
		target := r.U64()
		raw := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		hyst, ok := counter.HysteresisFromValue(raw)
		if !ok {
			return state.Corruptf("filter entry hysteresis %d out of range", raw)
		}
		*e = filterEntry{valid: true, tag: tag, target: target, hyst: hyst}
	}
	f.filterServed = r.U64()
	f.ppmServed = r.U64()
	if err := r.End(); err != nil {
		return err
	}
	return f.ppm.Restore(r)
}

// Snapshot implements state.Snapshotter.
func (t *MultiMarkovTable) Snapshot(w *state.Writer) {
	w.Begin(state.SecMultiMarkov)
	w.U64(uint64(t.order))
	w.U64(uint64(t.k))
	for i := range t.entries {
		e := &t.entries[i]
		w.Bool(e.valid)
		if !e.valid {
			continue
		}
		w.U64(uint64(e.n))
		for _, s := range e.slots[:e.n] {
			w.U64(s.target)
			w.U8(s.count)
		}
	}
	w.End()
}

// Restore implements state.Snapshotter.
func (t *MultiMarkovTable) Restore(r *state.Reader) error {
	if err := r.Begin(state.SecMultiMarkov); err != nil {
		return err
	}
	order := r.U64()
	k := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if order != uint64(t.order) || k != uint64(t.k) {
		return state.Mismatchf("multi-target table order %d/k %d vs snapshot order %d/k %d", t.order, t.k, order, k)
	}
	for i := range t.entries {
		e := &t.entries[i]
		if !r.Bool() {
			e.valid = false
			e.n = 0
			for j := range e.slots {
				e.slots[j] = mtSlot{}
			}
			continue
		}
		n := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if n > uint64(t.k) {
			return state.Corruptf("multi-target state carries %d arcs over k=%d", n, t.k)
		}
		e.valid = true
		e.n = int(n)
		for j := 0; j < e.n; j++ {
			e.slots[j] = mtSlot{target: r.U64(), count: r.U8()}
		}
		for j := e.n; j < t.k; j++ {
			e.slots[j] = mtSlot{}
		}
	}
	return r.End()
}

// Snapshot implements state.Snapshotter: the scalar section, the inner PPM
// (history registers and accounting; its tables stay untrained but travel
// for uniformity), then every multi-target table.
func (m *MultiPPM) Snapshot(w *state.Writer) {
	w.Begin(state.SecMultiPPM)
	w.U64(uint64(m.inner.Config().Order))
	w.U64(uint64(m.k))
	w.End()
	m.inner.Snapshot(w)
	for _, t := range m.tables {
		t.Snapshot(w)
	}
}

// Restore implements state.Snapshotter.
func (m *MultiPPM) Restore(r *state.Reader) error {
	if err := r.Begin(state.SecMultiPPM); err != nil {
		return err
	}
	order := r.U64()
	k := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if order != uint64(m.inner.Config().Order) || k != uint64(m.k) {
		return state.Mismatchf("multi-target PPM order %d/k %d vs snapshot order %d/k %d",
			m.inner.Config().Order, m.k, order, k)
	}
	if err := r.End(); err != nil {
		return err
	}
	if err := m.inner.Restore(r); err != nil {
		return err
	}
	for _, t := range m.tables {
		if err := t.Restore(r); err != nil {
			return err
		}
	}
	return nil
}

var (
	_ state.Snapshotter = (*MarkovTable)(nil)
	_ state.Snapshotter = (*PPM)(nil)
	_ state.Snapshotter = (*FilteredPPM)(nil)
	_ state.Snapshotter = (*MultiMarkovTable)(nil)
	_ state.Snapshotter = (*MultiPPM)(nil)
)
