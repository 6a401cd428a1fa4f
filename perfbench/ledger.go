package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/tracecache"
)

// The layer ledger is the traced run's per-layer measurement: each layer's
// public entry points timed on their own, over the seeded paper suite at
// the default 120 000 events per run, plus a short probe of the serving
// layer. It is the same on every workload, so a layer number can be traced
// across workloads; README.md maps each metric to the end-to-end
// metric and workload it should move.

// ledger accumulates failures found while measuring. errs are failures of
// their own; opErrs describe probe operations already counted as failed.
type ledger struct {
	env    *runEnv
	m      *metrics
	errs   []string
	opErrs []string
}

func (l *ledger) noteOp(err error) {
	if err != nil {
		l.opErrs = append(l.opErrs, err.Error())
	}
}

func (l *ledger) failf(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// predictorPkg names the package a predictor's concrete type lives in:
// "core" for PPM-hyb, "twolevel" for TC-PIB.
func predictorPkg(name string) string {
	p, _ := bench.NewPredictor(name)
	path := reflect.TypeOf(p).Elem().PkgPath()
	return path[strings.LastIndexByte(path, '/')+1:]
}

func nsPer(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// layers times generation, IBT2 coding, block conversion, the RAS-only
// engine, and every predictor family on both engines, one suite run at a
// time so at most one trace is resident.
func (l *ledger) layers() {
	names := bench.PredictorNames()
	type acc struct {
		block, record     time.Duration
		lookups, mispreds uint64
	}
	per := make([]acc, len(names))
	var records, ibt2Bytes uint64
	var gen, conv, dec, ras time.Duration
	for _, cfg := range foldSuite(bench.Suite(), l.env.seed) {
		t := now()
		recs, _ := cfg.Records()
		gen += now() - t
		records += uint64(len(recs))

		t = now()
		blks := trace.Blocks(recs)
		conv += now() - t

		body, err := encodeIBT2(recs)
		if err != nil {
			l.failf("encode %s: %v", cfg, err)
			continue
		}
		ibt2Bytes += uint64(len(body))
		t = now()
		n, err := decodeMatches(body, recs)
		dec += now() - t
		if err != nil || n != len(recs) {
			l.failf("decode %s: %d of %d records: %v", cfg, n, len(recs), err)
		}

		t = now()
		sim.New().ProcessBlocks(blks)
		ras += now() - t

		for i, name := range names {
			p, _ := bench.NewPredictor(name)
			t = now()
			eb := sim.New(p)
			eb.ProcessBlocks(blks)
			per[i].block += now() - t

			q, _ := bench.NewPredictor(name)
			t = now()
			er := sim.New(q)
			er.ProcessAll(recs)
			per[i].record += now() - t

			cb, cr := eb.Counters()[0], er.Counters()[0]
			if cb != cr {
				l.failf("%s on %s: block engine %v, record engine %v", name, cfg, cb, cr)
			}
			per[i].lookups += cb.Lookups
			per[i].mispreds += cb.Mispredictions()
		}
	}
	l.m.set("workload.records", float64(records), "count")
	l.m.set("workload.gen_ns_per_record", nsPer(gen, records), "ns")
	l.m.set("trace.blocks_ns_per_record", nsPer(conv, records), "ns")
	l.m.set("trace.decode_ns_per_record", nsPer(dec, records), "ns")
	l.m.set("trace.ibt2_bytes_per_record", float64(ibt2Bytes)/float64(max(records, 1)), "B")
	l.m.set("sim.ras_ns_per_record", nsPer(ras, records), "ns")
	for i, name := range names {
		prefix := predictorPkg(name) + "." + name
		l.m.set(prefix+".block_ns_per_record", nsPer(per[i].block, records), "ns")
		l.m.set(prefix+".record_ns_per_record", nsPer(per[i].record, records), "ns")
		l.m.set(prefix+".mispred_pct", 100*float64(per[i].mispreds)/float64(max(per[i].lookups, 1)), "%")
	}
}

// decodeMatches decodes an IBT2 body record by record, as the daemon does,
// and checks each record against want.
func decodeMatches(body []byte, want []trace.Record) (int, error) {
	rd, err := trace.NewReader(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		r, err := rd.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if n >= len(want) || r != want[n] {
			return n, fmt.Errorf("record %d differs", n)
		}
	}
}

// grid measures the trace cache, scheduler and renderer on one cold grid.
func (l *ledger) grid() {
	suite := foldSuite(bench.Suite(), l.env.seed)
	g := gridRunner{suite: suite, pool: sched.New(l.env.nproc)}
	cache := tracecache.New(cacheBudget)
	res := g.compute(cache, true, 0)
	st := cache.Stats()
	if st.Generated != uint64(len(suite)) {
		l.failf("tracecache generated %d traces for one grid, want %d", st.Generated, len(suite))
	}
	cells, _ := res.simCells()
	l.m.set("tracecache.generated", float64(st.Generated), "count")
	l.m.set("tracecache.hits", float64(st.Hits), "count")
	l.m.set("tracecache.resident_mb", float64(st.Bytes)/(1<<20), "MB")
	l.m.set("sched.cells", float64(cells), "count")

	// Scheduler efficiency on the Figure 6 cells over the warm cache:
	// summed cell time over wall time times workers.
	var busy atomic.Int64
	pool := sched.New(l.env.nproc)
	t := now()
	pool.Map(len(suite), func(i int) {
		c := now()
		blks, _ := cache.GetBlocks(suite[i])
		sim.New(bench.Figure6Predictors()...).ProcessBlocks(blks)
		busy.Add(int64(now() - c))
	})
	wall := now() - t
	l.m.set("sched.efficiency", float64(busy.Load())/(float64(wall)*float64(pool.Workers())), "ratio")

	var renders []float64
	for i := 0; i < 20; i++ {
		t := now()
		g.render(res, 0)
		renders = append(renders, ms(now()-t))
	}
	l.m.set("report.render_ms", median(renders), "ms")
}

// state times the snapshot codec on a PPM-hyb engine trained on every
// session body, through a pooled writer and reader as the daemon uses them.
func (l *ledger) state() {
	bodies, err := sessionBodies(l.env.seed)
	if err != nil {
		l.failf("state: %v", err)
		return
	}
	eng := sim.New(core.PaperHyb())
	for _, pair := range bodies {
		eng.ProcessAll(pair[0])
		eng.ProcessAll(pair[1])
	}
	pool := state.NewPool()
	var saves, loads []float64
	var snap []byte
	for i := 0; i < 200; i++ {
		w := pool.Writer()
		t := now()
		data := state.Save(eng, w)
		saves = append(saves, float64(now()-t)/float64(time.Microsecond))
		snap = append(snap[:0], data...)
		pool.PutWriter(w)
	}
	fresh := sim.New(core.PaperHyb())
	for i := 0; i < 200; i++ {
		r := pool.Reader()
		t := now()
		err := state.Load(fresh, r, snap)
		loads = append(loads, float64(now()-t)/float64(time.Microsecond))
		pool.PutReader(r)
		if err != nil {
			l.failf("state load: %v", err)
			return
		}
	}
	if !bytes.Equal(state.SaveBytes(fresh), snap) {
		l.failf("state: restored engine does not re-serialize to the same bytes")
	}
	l.m.set("state.save_us", median(saves), "us")
	l.m.set("state.load_us", median(loads), "us")
	l.m.set("state.bytes", float64(len(snap)), "B")
}

// Probe durations: long enough for a stable median of each serving metric.
const (
	servedProbe   = 4 * time.Second
	sessionsProbe = 3 * time.Second
)

// serve probes the daemon with short, untraced runs of the served and
// sessions loops and reads the server-side quantiles from /statsz.
func (l *ledger) serve(ctx context.Context) (ops, bad int) {
	env := *l.env
	env.tr = nil

	sb, err := setupServed(ctx, &env)
	if err != nil {
		l.failf("serve probe: %v", err)
		if sb != nil && sb.d != nil {
			_ = sb.d.stop()
		}
		return 0, 0
	}
	ph, err := sb.measure(ctx, servedProbe)
	if err == nil {
		var st serve.Stats
		st, err = sb.d.stats(ctx)
		l.m.set("serve.submit_ms_p50", median(ph.suite.submit.snapshot()), "ms")
		l.m.set("serve.first_cell_ms_p50", median(ph.suite.firstCell.snapshot()), "ms")
		l.m.set("serve.server_job_p50_ms", st.LatencyP50MS, "ms")
		ops, bad = ph.counts.ops, ph.counts.bad
		l.noteOp(ph.counts.firstErr)
	}
	if serr := sb.d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		l.failf("serve probe: %v", err)
		return ops, bad
	}
	http429, httpErr, busy := ph.counts.http429, ph.counts.httpErr, ph.counts.busy

	sess, err := setupSessions(ctx, &env)
	if err != nil {
		l.failf("sessions probe: %v", err)
		if sess != nil && sess.d != nil {
			_ = sess.d.stop()
		}
		return ops, bad
	}
	sp, err := sess.measure(ctx, sessionsProbe)
	if err == nil {
		var st serve.Stats
		st, err = sess.d.stats(ctx)
		pred := median(sp.times.predict.snapshot())
		l.m.set("serve.server_predict_p50_ms", st.PredictP50MS, "ms")
		l.m.set("serve.ndjson_bytes_per_dispatch", float64(sp.times.bytes)/float64(max(sp.times.lines, 1)), "B")
		l.m.set("serve.framing_share", 1-sess.offlinePredictMS()/pred, "ratio")
		ops, bad = ops+sp.counts.ops, bad+sp.counts.bad
		l.noteOp(sp.counts.firstErr)
		http429 += sp.counts.http429
		httpErr += sp.counts.httpErr
		busy += sp.counts.busy
	}
	if serr := sess.d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		l.failf("sessions probe: %v", err)
	}
	l.m.set("serve.http_429", float64(http429), "count")
	l.m.set("serve.http_err", float64(httpErr), "count")
	// The clients re-send nothing; this counts the 409 "session busy"
	// answers that asked them to, each already a failure in http_err.
	l.m.set("serve.retries", float64(busy), "count")
	return ops, bad
}

// offlinePredictMS is the median time to decode a continuation body with
// trace.Reader and feed it through ProcessPredicted on a session engine
// already trained on the preceding body: the predict call minus HTTP and
// NDJSON framing.
func (b *sessionsBench) offlinePredictMS() float64 {
	var xs []float64
	for rep := 0; rep < 3; rep++ {
		for _, p := range b.pairs {
			eng := sim.New(core.PaperHyb())
			for _, r := range p.firstRecs {
				eng.ProcessPredicted(r)
			}
			t := now()
			rd, err := trace.NewReader(bytes.NewReader(p.next))
			if err != nil {
				continue
			}
			for {
				r, err := rd.Read()
				if err != nil {
					break
				}
				eng.ProcessPredicted(r)
			}
			xs = append(xs, ms(now()-t))
		}
	}
	return median(xs)
}
