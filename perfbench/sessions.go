package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The sessions workload is a closed loop of nproc clients driving live
// PPM-hyb sessions. One iteration creates session A, streams a predict body
// into it, GETs its state, creates session B and PUTs A's state into it,
// streams the same next body into both, and deletes both. Clients count
// lines and compare bytes; only the terminal "done" event is JSON-decoded.
//
// Each client sends its requests, one at a time, on a keep-alive connection
// of its own, and re-sends nothing: a 409 "session busy" is a failed
// operation. The daemon releases a session's claim only when its handler
// returns, after a Content-Length response (GET state) may already have
// reached the client. A request right behind it on another connection can
// then find the session still claimed; on the same connection the server
// reads it only after the handler has returned.

const (
	sessionEvents  = 20_000 // events per suite run the bodies are cut from
	sessionRecords = 8192   // records in every predict body
	pairsPerRun    = 2      // (body, next body) pairs cut from each suite run
)

// sessionPair is one iteration's input and the offline expectation.
type sessionPair struct {
	first, next   []byte         // IBT2 bodies
	firstRecs     []trace.Record // the first body, decoded
	wantFirst     []byte         // NDJSON pred lines of first on a fresh session
	wantNext      []byte         // NDJSON pred lines of next, continuing
	nFirst, nNext int            // dispatch (pred line) counts
	final         serve.SessionStatus
}

type sessionsBench struct {
	env   *runEnv
	d     *daemon
	pairs []sessionPair
	sum   string // digest of the offline prediction streams
}

// predictLines encodes, exactly as the daemon frames them, the pred lines a
// session engine emits for recs, advancing eng.
func predictLines(eng *sim.Engine, recs []trace.Record) ([]byte, int) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := 0
	for _, rec := range recs {
		p, dispatched := eng.ProcessPredicted(rec)
		if !dispatched {
			continue
		}
		ev := serve.PredictEvent{
			Type: "pred", Seq: eng.Counters()[0].Lookups,
			PC: rec.PC, Actual: rec.Target,
			Predicted: p.Predicted, Correct: p.Correct,
		}
		if p.Predicted {
			ev.Target = p.Target
		}
		_ = enc.Encode(ev)
		n++
	}
	return buf.Bytes(), n
}

// sessionBodies cuts every seeded suite run into pairsPerRun (body, next
// body) pairs of sessionRecords records each, so the iterations cover the
// whole suite and a seed changes the mix only slightly.
func sessionBodies(seed uint64) ([][2][]trace.Record, error) {
	var pairs [][2][]trace.Record
	for _, cfg := range foldSuite(bench.Sized(sessionEvents), seed) {
		recs, _ := cfg.Records()
		if len(recs) < 2*pairsPerRun*sessionRecords {
			return nil, fmt.Errorf("%s has %d records, need %d", cfg, len(recs), 2*pairsPerRun*sessionRecords)
		}
		for j := 0; j < pairsPerRun; j++ {
			at := 2 * j * sessionRecords
			pairs = append(pairs, [2][]trace.Record{
				recs[at : at+sessionRecords],
				recs[at+sessionRecords : at+2*sessionRecords],
			})
		}
	}
	return pairs, nil
}

func setupSessions(ctx context.Context, env *runEnv) (*sessionsBench, error) {
	bodies, err := sessionBodies(env.seed)
	if err != nil {
		return nil, err
	}
	b := &sessionsBench{env: env}
	h := sha256.New()
	for _, pair := range bodies {
		p := sessionPair{firstRecs: pair[0]}
		if p.first, err = encodeIBT2(pair[0]); err != nil {
			return nil, err
		}
		if p.next, err = encodeIBT2(pair[1]); err != nil {
			return nil, err
		}
		eng := sim.New(core.PaperHyb())
		p.wantFirst, p.nFirst = predictLines(eng, pair[0])
		p.wantNext, p.nNext = predictLines(eng, pair[1])
		c := eng.Counters()[0]
		p.final = serve.SessionStatus{
			Predictor: "PPM-hyb", Records: eng.Records(),
			Lookups: c.Lookups, Correct: c.Correct, Wrong: c.Wrong, NoPrediction: c.NoPrediction,
		}
		h.Write(p.wantFirst)
		h.Write(p.wantNext)
		b.pairs = append(b.pairs, p)
	}
	b.sum = hex.EncodeToString(h.Sum(nil))

	b.d, err = startDaemon(env.daemonBin, env.nproc)
	if err != nil {
		return nil, err
	}
	var c opCounts
	var rec sessionTimes
	cl := b.client()
	c.record(cl.iteration(ctx, 0, nil, 0, &rec))
	cl.http.CloseIdleConnections()
	if c.bad > 0 {
		return b, fmt.Errorf("sessions warm-up: %v", c.firstErr)
	}
	return b, nil
}

// sessionTimes collects one phase's client-side timings. When instr is
// set, in the serial tail of a phase, it also attributes the daemon's
// instructions to each predict call and each state round trip.
type sessionTimes struct {
	predict, stateRT   samples
	mu                 sync.Mutex
	lines, bytes       int
	instr              *instrCounter
	predictMI, stateMI []float64 // millions of instructions
}

// mark reads the daemon's instruction counter, or returns 0 when this
// phase does not attribute instructions.
func (st *sessionTimes) mark() (uint64, error) {
	if st.instr == nil {
		return 0, nil
	}
	return st.instr.read()
}

func (st *sessionTimes) addLines(n, size int) {
	st.mu.Lock()
	st.lines += n
	st.bytes += size
	st.mu.Unlock()
}

// sessionClient is one client of the sessions loop.
type sessionClient struct {
	*sessionsBench
	http *http.Client // one keep-alive connection
}

func (b *sessionsBench) client() sessionClient { return sessionClient{b, newClient(1)} }

// predict streams body into session id and splits the response into its
// pred lines (compared as bytes) and the decoded terminal done event.
func (b sessionClient) predict(ctx context.Context, id string, body []byte, tr *tracer, parent int, st *sessionTimes) ([]byte, int, serve.SessionStatus, error) {
	var done serve.SessionStatus
	i0, err := st.mark()
	if err != nil {
		return nil, 0, done, err
	}
	sp := tr.begin("serve.predict", parent)
	t0 := now()
	code, data, err := b.d.doOn(ctx, b.http, http.MethodPost, "/v1/sessions/"+id+"/predict", "application/x-ibt2", body)
	lat := now() - t0
	tr.end(sp)
	if err != nil {
		return nil, 0, done, err
	}
	i1, err := st.mark()
	if err != nil {
		return nil, 0, done, err
	}
	if code != http.StatusOK {
		return nil, 0, done, &statusErr{"predict", code, string(data)}
	}
	cs := tr.begin("bench.check", parent)
	defer tr.end(cs)
	cut := bytes.LastIndexByte(data[:max(len(data)-1, 0)], '\n') + 1
	lines, last := data[:cut], data[cut:]
	var ev serve.PredictEvent
	if err := json.Unmarshal(last, &ev); err != nil || ev.Type != "done" || ev.Session == nil {
		return nil, 0, done, fmt.Errorf("predict stream did not end in a done event: %.200s", last)
	}
	n := bytes.Count(lines, []byte{'\n'})
	st.predict.add(lat)
	st.addLines(n, len(lines))
	if st.instr != nil {
		st.predictMI = append(st.predictMI, float64(i1-i0)/1e6)
	}
	return lines, n, *ev.Session, nil
}

// create opens a PPM-hyb session and returns its ID.
func (b sessionClient) create(ctx context.Context, tr *tracer, parent int) (string, error) {
	sp := tr.begin("serve.session_create", parent)
	code, data, err := b.d.doOn(ctx, b.http, http.MethodPost, "/v1/sessions", "application/json", []byte(`{"predictor":"PPM-hyb"}`))
	tr.end(sp)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", &statusErr{"create session", code, string(data)}
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func (b sessionClient) remove(ctx context.Context, id string, tr *tracer, parent int) error {
	sp := tr.begin("serve.session_delete", parent)
	defer tr.end(sp)
	code, data, err := b.d.doOn(ctx, b.http, http.MethodDelete, "/v1/sessions/"+id, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &statusErr{"delete session", code, string(data)}
	}
	return nil
}

// iteration runs the six-step loop on pair k and checks every output.
func (b sessionClient) iteration(ctx context.Context, k int, tr *tracer, parent int, st *sessionTimes) (err error) {
	p := &b.pairs[k%len(b.pairs)]
	idA, err := b.create(ctx, tr, parent)
	if err != nil {
		return err
	}
	defer func() {
		if derr := b.remove(ctx, idA, tr, parent); err == nil {
			err = derr
		}
	}()
	lines, n, _, err := b.predict(ctx, idA, p.first, tr, parent, st)
	if err != nil {
		return err
	}
	if n != p.nFirst || !bytes.Equal(lines, p.wantFirst) {
		return fmt.Errorf("first stream: %d lines, want %d (bytes equal: %v)", n, p.nFirst, bytes.Equal(lines, p.wantFirst))
	}

	g0, err := st.mark()
	if err != nil {
		return err
	}
	sp := tr.begin("serve.state_get", parent)
	t0 := now()
	code, snap, err := b.d.doOn(ctx, b.http, http.MethodGet, "/v1/sessions/"+idA+"/state", "", nil)
	get := now() - t0
	tr.end(sp)
	if err != nil {
		return err
	}
	g1, err := st.mark()
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &statusErr{"get state", code, string(snap)}
	}
	idB, err := b.create(ctx, tr, parent)
	if err != nil {
		return err
	}
	defer func() {
		if derr := b.remove(ctx, idB, tr, parent); err == nil {
			err = derr
		}
	}()
	p0, err := st.mark()
	if err != nil {
		return err
	}
	sp = tr.begin("serve.state_put", parent)
	t0 = now()
	code, data, err := b.d.doOn(ctx, b.http, http.MethodPut, "/v1/sessions/"+idB+"/state", "application/x-ppm-state", snap)
	put := now() - t0
	tr.end(sp)
	if err != nil {
		return err
	}
	p1, err := st.mark()
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &statusErr{"put state", code, string(data)}
	}
	st.stateRT.add(get + put)
	if st.instr != nil {
		st.stateMI = append(st.stateMI, float64(g1-g0+p1-p0)/1e6)
	}

	linesA, nA, doneA, err := b.predict(ctx, idA, p.next, tr, parent, st)
	if err != nil {
		return err
	}
	linesB, nB, doneB, err := b.predict(ctx, idB, p.next, tr, parent, st)
	if err != nil {
		return err
	}
	switch {
	case !bytes.Equal(linesA, linesB):
		return fmt.Errorf("sessions A and B diverged after the state transfer")
	case nA != p.nNext || nB != p.nNext:
		return fmt.Errorf("continuation: %d and %d lines, want %d", nA, nB, p.nNext)
	case !bytes.Equal(linesA, p.wantNext):
		return fmt.Errorf("continuation differs from the offline prediction stream")
	}
	for _, done := range []serve.SessionStatus{doneA, doneB} {
		done.ID, done.StateBytes = "", 0
		if done != p.final {
			return fmt.Errorf("done status %+v, want %+v", done, p.final)
		}
	}
	return nil
}

// sessionsTail is how many iterations run one at a time at the end of a
// phase, so the daemon's instructions can be read per request.
const sessionsTail = 30

// sessionsPhase is one measuring phase's raw results.
type sessionsPhase struct {
	times  sessionTimes // the closed loop
	tail   sessionTimes // the serial tail, with instructions
	counts opCounts
	wall   time.Duration
	alloc  float64 // daemon MiB allocated per closed-loop iteration
}

func (b *sessionsBench) measure(ctx context.Context, d time.Duration) (*sessionsPhase, error) {
	ph := &sessionsPhase{}
	a0, err := b.d.allocMB(ctx)
	if err != nil {
		return nil, err
	}
	tr := b.env.tr
	start := now()
	deadline := start + d
	var wg sync.WaitGroup
	clients := b.env.nproc
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := b.client()
			defer cl.http.CloseIdleConnections()
			for k := c; now() < deadline && ctx.Err() == nil; k += clients {
				root := tr.begin("sessions", 0)
				ph.counts.record(cl.iteration(ctx, k, tr, root, &ph.times))
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
	ph.alloc = (a1 - a0) / float64(max(ph.counts.ops, 1))

	ph.tail.instr = b.d.instr
	cl := b.client()
	for k := 0; k < sessionsTail && ctx.Err() == nil; k++ {
		root := tr.begin("sessions", 0)
		ph.counts.record(cl.iteration(ctx, k, tr, root, &ph.tail))
		tr.end(root)
	}
	cl.http.CloseIdleConnections()
	return ph, nil
}

func (ph *sessionsPhase) metrics() (e2e, clock *metrics) {
	e2e = newMetrics()
	e2e.setInstr("main_minstr", ph.tail.predictMI, "daemon, per predict call")
	e2e.setInstr("aux_minstr", ph.tail.stateMI, "daemon, per state GET + PUT")
	e2e.set("alloc_mb_per_op", ph.alloc, "MB")
	e2e.note("alloc_mb_per_op", "daemon, per iteration")
	return e2e, wallMetrics(ph.times.predict.snapshot(), ph.times.stateRT.snapshot(), "predict calls", "state round trips",
		float64(ph.times.lines)/ph.wall.Seconds(), "prediction lines/s")
}

func (b *sessionsBench) phase(ctx context.Context, d time.Duration) phaseOut {
	ph, err := b.measure(ctx, d)
	if err != nil {
		return phaseOut{bad: 1, err: err}
	}
	e2e, clock := ph.metrics()
	return phaseOut{m: e2e, wall: clock, ops: ph.counts.ops, bad: ph.counts.bad,
		busy: ph.counts.busy, err: ph.counts.firstErr}
}

func (b *sessionsBench) rssMB() (float64, error) { return vmHWM(b.d.pid()) }
func (b *sessionsBench) digest() string          { return "sessions=" + b.sum }
func (b *sessionsBench) close() error            { return b.d.stop() }
