package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracecache"
)

// The served workload is a closed loop of nproc clients against a real
// ppmserved. Each client alternates a fig6 suite job (all 14 runs, read from
// the daemon's warm trace cache) with an IBT2 upload job: one suite run,
// regenerated from the seed and encoded in set-up. Uploads rotate through
// the suite, so a seed's traces change the mix only slightly. Every served
// cell must equal an in-process sched.SimulateBlocks reference, which also
// holds the daemon's record engine to the block engine.

const servedEvents = 20_000

// servedMaxConcurrent sizes the daemon's simulation slots so that an
// upload always finds one: uploads try-acquire and are shed with 429 when
// none is free, which this closed loop must never provoke. Each client has
// at most one job in flight, and a suite job holds at most one slot per
// cell, so clients-1 suite jobs plus one upload need fewer slots than this.
func servedMaxConcurrent(clients int) int { return len(bench.Suite()) * clients }

type servedBench struct {
	env     *runEnv
	d       *daemon
	spec    []byte   // suite job body
	suite   [][]byte // reference cell of each suite-job cell, by index
	uploads []upload
	next    atomic.Uint64 // the next upload to send
	sum     string        // digest of the reference cells
}

// upload is one pre-encoded upload body and its reference cell.
type upload struct {
	label string
	body  []byte
	want  []byte
}

// servedEventsFor is the suite-job event count: the paper's reduced 20 000
// at the default seed, nudged by at most 2.5% at other seeds.
func servedEventsFor(seed uint64) int {
	if seed == defaultSeed {
		return servedEvents
	}
	return servedEvents + 8*int(seed%64)
}

func setupServed(ctx context.Context, env *runEnv) (*servedBench, error) {
	events := servedEventsFor(env.seed)
	b := &servedBench{env: env}
	h := sha256.New()

	// Reference counters, computed in-process through the block engine.
	pool := sched.New(env.nproc)
	for i, r := range pool.SimulateBlocks(tracecache.New(0), bench.Sized(events), bench.Figure6Predictors) {
		b.suite = append(b.suite, cellJSON(i, r.Config.String(), r))
		h.Write(b.suite[i])
	}
	upCfgs := foldSuite(bench.Sized(events), env.seed)
	for _, r := range pool.SimulateBlocks(tracecache.New(0), upCfgs, bench.Figure6Predictors) {
		recs, _ := r.Config.Records()
		body, err := encodeIBT2(recs)
		if err != nil {
			return nil, err
		}
		label := r.Config.String()
		up := upload{label: label, body: body, want: cellJSON(0, label, r)}
		b.uploads = append(b.uploads, up)
		h.Write(up.want)
	}
	b.sum = hex.EncodeToString(h.Sum(nil))
	b.spec, _ = json.Marshal(serve.JobSpec{Suite: "fig6", Events: events})

	clients := env.nproc
	d, err := startDaemon(env.daemonBin, clients, "-max-concurrent", fmt.Sprint(servedMaxConcurrent(clients)))
	if err != nil {
		return nil, err
	}
	b.d = d
	// Warm the daemon's trace cache and check both job kinds once.
	var c opCounts
	c.record(b.suiteJob(ctx, nil, 0, nil))
	c.record(b.uploadJob(ctx, b.nextUpload(), nil, 0, nil))
	if c.bad > 0 {
		return b, fmt.Errorf("served warm-up: %v", c.firstErr)
	}
	return b, nil
}

// cellJSON is the wire form a served cell must match.
func cellJSON(index int, run string, r sched.Result) []byte {
	cell := serve.CellResult{Index: index, Run: run, Records: r.Summary.Records}
	for _, c := range r.Counters {
		cell.Predictors = append(cell.Predictors, serve.PredictorResult{
			Name: c.Predictor, Lookups: c.Lookups, Correct: c.Correct,
			Wrong: c.Wrong, NoPrediction: c.NoPrediction,
		})
	}
	data, _ := json.Marshal(cell)
	return data
}

func encodeIBT2(recs []trace.Record) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jobTimes are the client-side timings of one served job.
type jobTimes struct {
	latency, submit, firstCell samples
}

// readEvents reads an NDJSON job stream, checking each cell against want
// (indexed by cell index) and the terminal state. It returns the time the
// first cell arrived.
func readEvents(sc *bufio.Scanner, want [][]byte) (time.Duration, error) {
	seen := make([]bool, len(want))
	var first time.Duration
	n := 0
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, fmt.Errorf("bad event line: %w", err)
		}
		switch ev.Type {
		case "cell":
			if n == 0 {
				first = now()
			}
			n++
			if ev.Cell == nil || ev.Cell.Index < 0 || ev.Cell.Index >= len(want) || seen[ev.Cell.Index] {
				return 0, fmt.Errorf("unexpected cell %+v", ev.Cell)
			}
			seen[ev.Cell.Index] = true
			data, _ := json.Marshal(ev.Cell)
			if !bytes.Equal(data, want[ev.Cell.Index]) {
				return 0, fmt.Errorf("cell %d = %s, want %s", ev.Cell.Index, data, want[ev.Cell.Index])
			}
		case "done":
			if ev.State != serve.StateDone {
				return 0, fmt.Errorf("job ended %s: %s", ev.State, ev.Error)
			}
			if n != len(want) {
				return 0, fmt.Errorf("job done after %d of %d cells", n, len(want))
			}
			return first, nil
		default:
			return 0, fmt.Errorf("unexpected event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("stream ended without a done event")
}

// suiteJob submits a fig6 suite job, streams its results and checks every
// cell. jt, when non-nil, receives the job's timings.
func (b *servedBench) suiteJob(ctx context.Context, tr *tracer, parent int, jt *jobTimes) error {
	t0 := now()
	sp := tr.begin("serve.submit", parent)
	code, body, err := b.d.do(ctx, http.MethodPost, "/v1/jobs", "application/json", b.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return &statusErr{"submit", code, string(body)}
	}
	tSubmit := now()
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}
	sp = tr.begin("serve.results", parent)
	defer tr.end(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.d.base+"/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		return err
	}
	resp, err := b.d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusErr{"results", resp.StatusCode, ""}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	first, err := readEvents(sc, b.suite)
	if err != nil {
		return err
	}
	if jt != nil {
		end := now()
		jt.latency.add(end - t0)
		jt.submit.add(tSubmit - t0)
		jt.firstCell.add(first - t0)
	}
	return nil
}

// nextUpload returns the upload after the one handed out last.
func (b *servedBench) nextUpload() *upload {
	return &b.uploads[(b.next.Add(1)-1)%uint64(len(b.uploads))]
}

// uploadJob streams an upload body as an upload job and checks its cell.
func (b *servedBench) uploadJob(ctx context.Context, up *upload, tr *tracer, parent int, lat *samples) error {
	t0 := now()
	sp := tr.begin("serve.upload", parent)
	defer tr.end(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		b.d.base+"/v1/jobs?suite=fig6&label="+up.label, bytes.NewReader(up.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ibt2")
	resp, err := b.d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return &statusErr{"upload", resp.StatusCode, msg.String()}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if _, err := readEvents(sc, [][]byte{up.want}); err != nil {
		return fmt.Errorf("upload %s: %w", up.label, err)
	}
	if lat != nil {
		lat.add(now() - t0)
	}
	return nil
}

// servedTail is how many suite jobs run one at a time at the end of a
// phase, followed by one upload of each suite run, so the daemon's
// instructions can be read per job.
const servedTail = 10

// servedPhase is one measuring phase's raw results.
type servedPhase struct {
	suite             jobTimes
	upload            samples
	counts            opCounts
	wall              time.Duration
	alloc             float64   // daemon MiB allocated during the closed loop
	suiteMI, uploadMI []float64 // daemon millions of instructions per job
}

// measure runs the closed loop for d. Client c starts on job kind c%2 so
// both kinds are in flight from the start.
func (b *servedBench) measure(ctx context.Context, d time.Duration) (*servedPhase, error) {
	ph := &servedPhase{}
	a0, err := b.d.allocMB(ctx)
	if err != nil {
		return nil, err
	}
	tr := b.env.tr
	start := now()
	deadline := start + d
	var wg sync.WaitGroup
	for c := 0; c < b.env.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; now() < deadline && ctx.Err() == nil; k++ {
				root := tr.begin("served", 0)
				if k%2 == 0 {
					ph.counts.record(b.suiteJob(ctx, tr, root, &ph.suite))
				} else {
					ph.counts.record(b.uploadJob(ctx, b.nextUpload(), tr, root, &ph.upload))
				}
				tr.end(root)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = now() - start
	a1, err := b.d.allocMB(ctx)
	if err != nil {
		return nil, err
	}
	ph.alloc = a1 - a0
	loopOps := ph.counts.ops

	for i := 0; i < servedTail+len(b.uploads) && ctx.Err() == nil; i++ {
		root := tr.begin("served", 0)
		if i < servedTail {
			mi, err := instrOf(b.d.instr, func() error { return b.suiteJob(ctx, tr, root, nil) })
			ph.counts.record(err)
			ph.suiteMI = append(ph.suiteMI, mi)
		} else {
			up := &b.uploads[i-servedTail]
			mi, err := instrOf(b.d.instr, func() error { return b.uploadJob(ctx, up, tr, root, nil) })
			ph.counts.record(err)
			ph.uploadMI = append(ph.uploadMI, mi)
		}
		tr.end(root)
	}
	ph.alloc /= float64(max(loopOps, 1))
	return ph, nil
}

func (ph *servedPhase) metrics() (e2e, clock *metrics) {
	e2e = newMetrics()
	e2e.setInstr("main_minstr", ph.suiteMI, "daemon, per suite job")
	e2e.setInstr("aux_minstr", ph.uploadMI, "daemon, per upload job")
	e2e.set("alloc_mb_per_op", ph.alloc, "MB")
	e2e.note("alloc_mb_per_op", "daemon, per job")
	loopOps := len(ph.suite.latency.snapshot()) + len(ph.upload.snapshot())
	return e2e, wallMetrics(ph.suite.latency.snapshot(), ph.upload.snapshot(), "suite jobs", "upload jobs",
		float64(loopOps)/ph.wall.Seconds(), "jobs/s")
}

func (b *servedBench) phase(ctx context.Context, d time.Duration) phaseOut {
	ph, err := b.measure(ctx, d)
	if err != nil {
		return phaseOut{bad: 1, err: err}
	}
	e2e, clock := ph.metrics()
	return phaseOut{m: e2e, wall: clock, ops: ph.counts.ops, bad: ph.counts.bad, err: ph.counts.firstErr}
}

func (b *servedBench) rssMB() (float64, error) { return vmHWM(b.d.pid()) }
func (b *servedBench) digest() string          { return "served=" + b.sum }
func (b *servedBench) close() error            { return b.d.stop() }
