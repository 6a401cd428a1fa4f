package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// epoch anchors every timestamp the benchmark takes; durations are read off
// the monotonic clock relative to it.
var epoch = time.Now() //lint:wallclock the benchmark measures wall time by definition

// now returns the monotonic time elapsed since process start.
func now() time.Duration {
	return time.Since(epoch) //lint:wallclock the benchmark measures wall time by definition
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples is a concurrency-safe latency recorder in milliseconds.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, ms(d))
	s.mu.Unlock()
}

func (s *samples) snapshot() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order and a note per metric for the
// human-readable report; vals is what the result line carries.
type metrics struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}, notes: map[string]string{}} }

// note attaches a remark, such as the sample count, to a metric's report line.
func (m *metrics) note(name, format string, args ...any) {
	m.notes[name] = fmt.Sprintf(format, args...)
}

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

func (m *metrics) merge(o *metrics) {
	for _, n := range o.names {
		m.set(n, o.vals[n].Value, o.vals[n].Unit)
		if note, ok := o.notes[n]; ok {
			m.notes[n] = note
		}
	}
}

// report prints one aligned line per metric, with its note, to w.
func (m *metrics) report(w io.Writer) {
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Fprintf(w, "  %-44s %14.4f %-6s %s\n", n, v.Value, v.Unit, m.notes[n])
	}
}

// setInstr sets a per-operation instruction metric to the mean of the
// middle half of xs. The middle half leaves out the operations that a
// garbage collection cycle or other background work of the process happened
// to overlap; the mean, unlike the median, still weighs every input of a
// fixed set of different ones (the 14 upload traces, the 28 session bodies).
func (m *metrics) setInstr(name string, xs []float64, what string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	m.set(name, sum/float64(max(len(mid), 1)), "Minstr")
	m.note(name, "%s, middle %d of %d in [%.4g, %.4g]", what, len(mid), len(s), quantile(s, 0), quantile(s, 1))
}

// wallMetrics are a phase's wall-clock figures: the p50 and p90 of its main
// and auxiliary operations and its throughput. They are reported, not gated:
// on a shared host they follow the neighbours' load (see README.md).
func wallMetrics(main, aux []float64, mainOps, auxOps string, work float64, workNote string) *metrics {
	m := newMetrics()
	m.set("wall.main_p50_ms", median(main), "ms")
	m.set("wall.main_p90_ms", quantile(main, 0.9), "ms")
	m.note("wall.main_p90_ms", "%d %s", len(main), mainOps)
	m.set("wall.aux_p50_ms", median(aux), "ms")
	m.set("wall.aux_p90_ms", quantile(aux, 0.9), "ms")
	m.note("wall.aux_p90_ms", "%d %s", len(aux), auxOps)
	m.set("wall.work_per_s", work, "1/s")
	m.note("wall.work_per_s", "%s", workNote)
	return m
}

// heapAllocMB returns the bytes this process has allocated so far, in MiB.
func heapAllocMB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / (1 << 20)
}

// vmHWM reads a process's peak resident set size (VmHWM) in MiB from procfs.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", pid)
}

// span is one timed call into a layer. Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: "sched" for
// "sched.SimulateBlocks". Root spans carry the workload name and count as
// the benchmark's own time.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "bench"
}

// tracer records spans in memory when enabled. A nil or disabled tracer
// costs one branch per call, so the untraced runs share the traced code.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	start := now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	e := now()
	t.mu.Lock()
	t.spans[id-1].End = e
	t.mu.Unlock()
}

type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by ivs clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = iv
		case iv.hi > cur.hi:
			cur.hi = iv.hi
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// spanSummary is the traced run's attribution: self time per layer and the
// share of the measured wall time the layer calls cover.
type spanSummary struct {
	Self     map[string]time.Duration // by layer
	SelfCall map[string]time.Duration // by span name
	Covered  time.Duration
	Wall     time.Duration
	Spans    int
	Coverage float64 // Covered / Wall
}

// summarize computes each span's self time — its duration minus the part of
// its interval its children cover — and sums it per layer. Coverage is the
// union of every layer call over the wall window [from, to]: non-root spans
// outside the "bench" layer, whose checks are the benchmark's own time.
func summarize(spans []span, from, to time.Duration) spanSummary {
	children := make(map[int][]interval, len(spans))
	var calls []interval
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			if s.layer() != "bench" {
				calls = append(calls, interval{s.Start, s.End})
			}
		}
	}
	sum := spanSummary{Self: map[string]time.Duration{}, SelfCall: map[string]time.Duration{}, Wall: to - from, Spans: len(spans)}
	for _, s := range spans {
		self := (s.End - s.Start) - unionLen(children[s.ID], s.Start, s.End)
		sum.Self[s.layer()] += self
		sum.SelfCall[s.Name] += self
	}
	sum.Covered = unionLen(calls, from, to)
	if sum.Wall > 0 {
		sum.Coverage = float64(sum.Covered) / float64(sum.Wall)
	}
	return sum
}

// print writes the self-time tables, by layer and by call, largest first.
func (s spanSummary) print(w io.Writer) {
	fmt.Fprintf(w, "self time over %.3f s of traced wall time (%d spans):\n", s.Wall.Seconds(), s.Spans)
	printSelf(w, "by layer", s.Self)
	printSelf(w, "by call", s.SelfCall)
	fmt.Fprintf(w, "layer calls cover %.1f%% of the traced wall time\n", 100*s.Coverage)
}

func printSelf(w io.Writer, title string, self map[string]time.Duration) {
	keys := make([]string, 0, len(self))
	var total time.Duration
	for k, d := range self {
		keys = append(keys, k)
		total += d
	}
	sort.Slice(keys, func(i, j int) bool {
		if self[keys[i]] != self[keys[j]] {
			return self[keys[i]] > self[keys[j]]
		}
		return keys[i] < keys[j]
	})
	fmt.Fprintf(w, "  %s:\n", title)
	for _, k := range keys {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[k]) / float64(total)
		}
		fmt.Fprintf(w, "    %-24s %12.1f ms  %5.1f%%\n", k, ms(self[k]), share)
	}
}

// writeSpans stores the raw spans and the host stamp as JSON at path.
func writeSpans(path string, h host, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Host     host   `json:"host"`
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{h, workload, seed, spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
