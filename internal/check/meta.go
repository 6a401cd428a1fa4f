package check

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// The metamorphic runner checks relations that must hold between different
// executions of the same simulation: none of the machinery wrapped around
// the core — trace caching, worker pools, the HTTP service — is allowed to
// change a single output byte. Each property returns nil or an error
// describing the first violated relation; none of them know which execution
// is "right", only that the two must agree.

// SameSeedIdentity checks that generating a workload twice yields
// byte-identical IBT2 encodings and identical summaries: the generator must
// have no hidden state across calls.
func SameSeedIdentity(cfg workload.Config) error {
	recsA, sumA := cfg.Records()
	recsB, sumB := cfg.Records()
	encA, err := encodeTrace(recsA)
	if err != nil {
		return err
	}
	encB, err := encodeTrace(recsB)
	if err != nil {
		return err
	}
	if !bytes.Equal(encA, encB) {
		return fmt.Errorf("same-seed: config %s produced different byte streams (%d vs %d records)", cfg.String(), len(recsA), len(recsB))
	}
	if err := summariesEqual(sumA, sumB); err != nil {
		return fmt.Errorf("same-seed: config %s: %w", cfg.String(), err)
	}
	return nil
}

// TraceCacheIdentity checks that simulating a suite through a live trace
// cache and through the disabled (always-regenerate) cache yields identical
// counters and summaries: caching may only change wall-clock time, never
// results. The budget is deliberately tiny so the run exercises eviction
// and regeneration, not just warm hits.
func TraceCacheIdentity(suite []workload.Config, build func() []predictor.IndirectPredictor, budget int64) error {
	pool := sched.New(1)
	cached := pool.Simulate(tracecache.New(budget), suite, build)
	// A second pass over the same cache replays hits/evictions.
	cachedAgain := pool.Simulate(tracecache.New(budget), suite, build)
	plain := pool.Simulate(tracecache.Disabled(), suite, build)
	if err := resultsEqual(cached, plain); err != nil {
		return fmt.Errorf("tracecache on/off: %w", err)
	}
	if err := resultsEqual(cached, cachedAgain); err != nil {
		return fmt.Errorf("tracecache rerun: %w", err)
	}
	return nil
}

// oneEntryBudget returns a trace cache budget that holds the largest of the
// configs' traces but no two of them, so a suite run through it evicts
// between cells.
func oneEntryBudget(cfgs []workload.Config) int64 {
	var most int64
	for _, cfg := range cfgs {
		blks, _ := tracecache.Disabled().Get(cfg)
		most = max(most, trace.BlocksBytes(blks))
	}
	return most
}

// WorkerIdentity checks that a sharded pool returns byte-identical results
// to the serial one-worker loop for every width in [2, maxWorkers].
func WorkerIdentity(suite []workload.Config, build func() []predictor.IndirectPredictor, maxWorkers int) error {
	cache := tracecache.New(0)
	serial := sched.New(1).Simulate(cache, suite, build)
	for w := 2; w <= maxWorkers; w++ {
		parallel := sched.New(w).Simulate(cache, suite, build)
		if err := resultsEqual(serial, parallel); err != nil {
			return fmt.Errorf("workers 1 vs %d: %w", w, err)
		}
	}
	return nil
}

// ServedVsSerial checks that a suite job submitted to a live serve.Server
// streams exactly the counters a serial in-process run of the same cells
// produces — the service's determinism contract.
func ServedVsSerial(workloads []string, events int, suiteName string) error {
	_, ts, shutdown := startServer()
	defer shutdown()

	st, err := submitJob(ts.URL, serve.JobSpec{Suite: suiteName, Workloads: workloads, Events: events})
	if err != nil {
		return fmt.Errorf("served-vs-serial: %w", err)
	}
	cells, err := streamJob(ts.URL, st.ID)
	if err != nil {
		return fmt.Errorf("served-vs-serial: %w", err)
	}
	if len(cells) != len(workloads) {
		return fmt.Errorf("served-vs-serial: got %d cells, want %d", len(cells), len(workloads))
	}
	want, err := serialCells(workloads, events, suiteName)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := cellMatches(c, want); err != nil {
			return fmt.Errorf("served-vs-serial: %w", err)
		}
	}
	return nil
}

// SplitConcatIdentity checks that one job covering N workloads and N jobs
// covering one workload each stream identical per-cell counters: session
// granularity must not leak into results.
func SplitConcatIdentity(workloads []string, events int, suiteName string) error {
	_, ts, shutdown := startServer()
	defer shutdown()

	st, err := submitJob(ts.URL, serve.JobSpec{Suite: suiteName, Workloads: workloads, Events: events})
	if err != nil {
		return fmt.Errorf("split-concat: %w", err)
	}
	joint, err := streamJob(ts.URL, st.ID)
	if err != nil {
		return fmt.Errorf("split-concat: %w", err)
	}
	byRun := make(map[string]serve.CellResult, len(joint))
	for _, c := range joint {
		byRun[c.Run] = c
	}

	for _, wl := range workloads {
		st, err := submitJob(ts.URL, serve.JobSpec{Suite: suiteName, Workloads: []string{wl}, Events: events})
		if err != nil {
			return fmt.Errorf("split-concat: workload %s: %w", wl, err)
		}
		cells, err := streamJob(ts.URL, st.ID)
		if err != nil {
			return fmt.Errorf("split-concat: workload %s: %w", wl, err)
		}
		if len(cells) != 1 {
			return fmt.Errorf("split-concat: workload %s job returned %d cells", wl, len(cells))
		}
		want, ok := byRun[cells[0].Run]
		if !ok {
			return fmt.Errorf("split-concat: run %q missing from the joint job", cells[0].Run)
		}
		if err := predictorsEqual(cells[0], want); err != nil {
			return fmt.Errorf("split-concat: run %q: %w", cells[0].Run, err)
		}
	}
	return nil
}

// UploadVsSerial checks that streaming an IBT2 trace through the service's
// upload path yields the same counters as feeding the records to a local
// sim.Engine: the incremental decode-and-simulate loop must match batch
// simulation exactly.
func UploadVsSerial(recs []trace.Record, predictors []string) error {
	_, ts, shutdown := startServer()
	defer shutdown()

	enc, err := encodeTrace(recs)
	if err != nil {
		return err
	}
	url := ts.URL + "/v1/jobs"
	sep := "?"
	for _, p := range predictors {
		url += sep + "predictor=" + p
		sep = "&"
	}
	resp, err := http.Post(url, "application/x-ibt2", bytes.NewReader(enc))
	if err != nil {
		return fmt.Errorf("upload-vs-serial: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload-vs-serial: status %d", resp.StatusCode)
	}
	cells, err := decodeEvents(resp)
	if err != nil {
		return fmt.Errorf("upload-vs-serial: %w", err)
	}
	if len(cells) != 1 {
		return fmt.Errorf("upload-vs-serial: got %d cells, want 1", len(cells))
	}

	preds := make([]predictor.IndirectPredictor, len(predictors))
	for i, name := range predictors {
		p, ok := bench.NewPredictor(name)
		if !ok {
			return fmt.Errorf("upload-vs-serial: unknown predictor %q", name)
		}
		preds[i] = p
	}
	want := sim.Run(recs, preds...)
	return countersMatch(cells[0], want)
}

// Metamorphic runs every property at the given scale and returns the first
// violation. It is the entry point cmd/ppmcheck and the quick CI pass share.
func Metamorphic(seed uint64, events int) error {
	cfgs := []workload.Config{RandomConfig(seed, events), RandomConfig(seed+1, events)}
	for _, cfg := range cfgs {
		if err := SameSeedIdentity(cfg); err != nil {
			return err
		}
	}
	build := bench.Figure6Predictors
	if err := TraceCacheIdentity(cfgs, build, oneEntryBudget(cfgs)); err != nil {
		return err
	}
	if err := WorkerIdentity(cfgs, build, 4); err != nil {
		return err
	}
	if err := BlocksVsRecords(cfgs, build, 4); err != nil {
		return err
	}
	if err := BlockEngineIdentity(RandomTrace(seed+2, events), build); err != nil {
		return err
	}
	if err := BlockEngineIdentity(RandomTrace(seed+3, events), ExtensionPredictors); err != nil {
		return err
	}
	if err := StateIdentity(RandomTrace(seed+4, events)); err != nil {
		return err
	}
	workloads := []string{"troff.ped", "eqn"}
	if err := ServedVsSerial(workloads, events, "fig6"); err != nil {
		return err
	}
	if err := SplitConcatIdentity(workloads, events, "fig7"); err != nil {
		return err
	}
	return UploadVsSerial(RandomTrace(seed, events), []string{"BTB", "Cascade", "PPM-hyb"})
}

// --- helpers ---------------------------------------------------------------

// encodeTrace serializes records as an in-memory IBT2 stream.
func encodeTrace(recs []trace.Record) ([]byte, error) {
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

// startServer boots a serve.Server on an httptest listener with quick-test
// sizing; the returned shutdown drains it. Shutdown is idempotent so sweeps
// can both defer it (error paths) and call it explicitly before leak checks.
func startServer() (*serve.Server, *httptest.Server, func()) {
	s := serve.New(serve.Config{
		MaxConcurrent: 2,
		JobTTL:        time.Minute,
		JobTimeout:    time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	var once sync.Once
	return s, ts, func() {
		once.Do(func() {
			//lint:rootctx harness-owned shutdown deadline; no caller context exists
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
			ts.Close()
		})
	}
}

// submitJob posts a suite JobSpec and decodes the accepted status.
func submitJob(base string, spec serve.JobSpec) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return serve.JobStatus{}, fmt.Errorf("submit status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}

// streamJob follows a job's NDJSON result stream to its done event.
func streamJob(base, id string) ([]serve.CellResult, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results status %d", resp.StatusCode)
	}
	return decodeEvents(resp)
}

// decodeEvents reads an NDJSON event stream, requiring a clean "done".
func decodeEvents(resp *http.Response) ([]serve.CellResult, error) {
	dec := json.NewDecoder(resp.Body)
	var cells []serve.CellResult
	for {
		var ev serve.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("result stream ended without done: %w", err)
		}
		switch ev.Type {
		case "cell":
			cells = append(cells, *ev.Cell)
		case "done":
			if ev.State != serve.StateDone {
				return nil, fmt.Errorf("job finished %s: %s", ev.State, ev.Error)
			}
			return cells, nil
		default:
			return nil, fmt.Errorf("unknown event type %q", ev.Type)
		}
	}
}

// serialCells runs the named workloads through the named suite in-process.
func serialCells(workloads []string, events int, suiteName string) (map[string][]stats.Counters, error) {
	var build func() []predictor.IndirectPredictor
	switch suiteName {
	case "", "fig6":
		build = bench.Figure6Predictors
	case "fig7":
		build = bench.Figure7Predictors
	default:
		return nil, fmt.Errorf("unknown suite %q", suiteName)
	}
	out := make(map[string][]stats.Counters, len(workloads))
	for _, name := range workloads {
		cfg, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		cfg.Events = events
		recs, _ := cfg.Records()
		out[cfg.String()] = sim.Run(recs, build()...)
	}
	return out, nil
}

// cellMatches compares a served cell against the serial counters for its run.
func cellMatches(c serve.CellResult, want map[string][]stats.Counters) error {
	counters, ok := want[c.Run]
	if !ok {
		return fmt.Errorf("unexpected run %q", c.Run)
	}
	return countersMatch(c, counters)
}

// countersMatch compares a served cell's predictor results to sim counters.
func countersMatch(c serve.CellResult, want []stats.Counters) error {
	if len(c.Predictors) != len(want) {
		return fmt.Errorf("run %q: %d predictors served, want %d", c.Run, len(c.Predictors), len(want))
	}
	for i, p := range c.Predictors {
		w := want[i]
		got := stats.Counters{Predictor: p.Name, Lookups: p.Lookups, Correct: p.Correct, Wrong: p.Wrong, NoPrediction: p.NoPrediction}
		if got != w {
			return fmt.Errorf("run %q predictor %s: served %+v, serial %+v", c.Run, p.Name, got, w)
		}
	}
	return nil
}

// predictorsEqual compares two served cells' counters.
func predictorsEqual(a, b serve.CellResult) error {
	if a.Records != b.Records {
		return fmt.Errorf("records %d vs %d", a.Records, b.Records)
	}
	if len(a.Predictors) != len(b.Predictors) {
		return fmt.Errorf("%d vs %d predictors", len(a.Predictors), len(b.Predictors))
	}
	for i := range a.Predictors {
		if a.Predictors[i] != b.Predictors[i] {
			return fmt.Errorf("predictor %s: %+v vs %+v", a.Predictors[i].Name, a.Predictors[i], b.Predictors[i])
		}
	}
	return nil
}

// resultsEqual compares two sched result sets cell by cell.
func resultsEqual(a, b []sched.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d cells", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Counters) != len(b[i].Counters) {
			return fmt.Errorf("cell %d: %d vs %d counters", i, len(a[i].Counters), len(b[i].Counters))
		}
		for k := range a[i].Counters {
			if a[i].Counters[k] != b[i].Counters[k] {
				return fmt.Errorf("cell %d predictor %s: %+v vs %+v", i, a[i].Counters[k].Predictor, a[i].Counters[k], b[i].Counters[k])
			}
		}
		if err := summariesEqual(a[i].Summary, b[i].Summary); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return nil
}

// summariesEqual compares workload summaries field by field (Summary holds a
// slice and a map, so it is not ==-comparable).
func summariesEqual(a, b workload.Summary) error {
	if a.Name != b.Name || a.Input != b.Input ||
		a.Instructions != b.Instructions || a.Records != b.Records ||
		a.MTStatic != b.MTStatic || a.MTDynamic != b.MTDynamic ||
		a.STDynamic != b.STDynamic || a.CondDynamic != b.CondDynamic ||
		a.CallsDynamic != b.CallsDynamic || a.RetsDynamic != b.RetsDynamic {
		return fmt.Errorf("summary scalars differ: %+v vs %+v", a, b)
	}
	if len(a.SiteExecs) != len(b.SiteExecs) {
		return fmt.Errorf("summary SiteExecs %d vs %d", len(a.SiteExecs), len(b.SiteExecs))
	}
	for i := range a.SiteExecs {
		if a.SiteExecs[i] != b.SiteExecs[i] {
			return fmt.Errorf("summary SiteExecs[%d] %d vs %d", i, a.SiteExecs[i], b.SiteExecs[i])
		}
	}
	if len(a.SiteByPC) != len(b.SiteByPC) {
		return fmt.Errorf("summary SiteByPC %d vs %d sites", len(a.SiteByPC), len(b.SiteByPC))
	}
	for pc, label := range a.SiteByPC { //lint:sorted equality check; any violating key fails identically
		if b.SiteByPC[pc] != label {
			return fmt.Errorf("summary SiteByPC[%#x] %q vs %q", pc, label, b.SiteByPC[pc])
		}
	}
	return nil
}
