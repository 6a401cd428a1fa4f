package check

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/bench"
	"repro/internal/check/faultio"
	"repro/internal/check/leakcheck"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The fault sweeps drive the IBT2 decoder and the service's upload path
// through every byte offset a stream can die at, asserting the exact
// contract at each one: a cut inside the header is a header error, a cut at
// a record boundary is a clean short trace, a cut mid-record is
// trace.ErrTruncated with every whole record already delivered, and a
// genuine I/O error is surfaced as itself — never misread as truncation.

// EncodeBoundaries serializes recs to an IBT2 stream and returns the byte
// offsets of every record boundary: offsets[k] is the length of a stream
// holding exactly the first k records (offsets[0] is the header). It is the
// harness's one IBT2 encoder; callers that need only the bytes drop the
// offsets (flushing after every record adds no bytes).
func EncodeBoundaries(recs []trace.Record) ([]byte, []int64, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, nil, err
	}
	offsets := make([]int64, 1, len(recs)+1)
	offsets[0] = int64(buf.Len())
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, nil, err
		}
		offsets = append(offsets, int64(buf.Len()))
	}
	return buf.Bytes(), offsets, nil
}

// boundaryIndex maps a cut offset to (whole records before the cut, whether
// the cut lands exactly on a record boundary).
func boundaryIndex(offsets []int64, cut int64) (int, bool) {
	k := 0
	for k+1 < len(offsets) && offsets[k+1] <= cut {
		k++
	}
	return k, offsets[k] == cut
}

// TruncationSweep decodes recs' encoding truncated at every byte offset and
// asserts the decoder's classification at each: header cuts fail NewReader,
// boundary cuts deliver a clean prefix, mid-record cuts deliver the whole
// prefix then trace.ErrTruncated. wrap, when non-nil, is applied to each
// truncated stream (e.g. a faultio.ShortReads layer) and must not change
// any outcome.
func TruncationSweep(recs []trace.Record, wrap func(io.Reader) io.Reader) error {
	enc, offsets, err := EncodeBoundaries(recs)
	if err != nil {
		return err
	}
	for cut := int64(0); cut <= int64(len(enc)); cut++ {
		var src io.Reader = faultio.Truncate(bytes.NewReader(enc), cut)
		if wrap != nil {
			src = wrap(src)
		}
		tr, err := trace.NewReader(src)
		if cut < offsets[0] {
			if err == nil {
				return fmt.Errorf("truncation: cut %d inside the header produced a reader", cut)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("truncation: cut %d: NewReader: %w", cut, err)
		}
		k, clean := boundaryIndex(offsets, cut)
		got, err := tr.ReadAll()
		if len(got) != k {
			return fmt.Errorf("truncation: cut %d delivered %d records, want %d", cut, len(got), k)
		}
		for i := range got {
			if got[i] != recs[i] {
				return fmt.Errorf("truncation: cut %d record %d decoded %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
		if clean {
			if err != nil {
				return fmt.Errorf("truncation: boundary cut %d errored: %v", cut, err)
			}
		} else if !errors.Is(err, trace.ErrTruncated) {
			return fmt.Errorf("truncation: mid-record cut %d returned %v, want trace.ErrTruncated", cut, err)
		}
	}
	return nil
}

// ErrAfterSweep injects a synthetic I/O error at every byte offset and
// asserts the decoder surfaces that error itself — wrapped is fine,
// reclassified as truncation is not. A device fault and a cut-off stream
// demand different operator responses, so conflating them is a bug.
func ErrAfterSweep(recs []trace.Record) error {
	enc, offsets, err := EncodeBoundaries(recs)
	if err != nil {
		return err
	}
	synthetic := errors.New("check: injected device fault")
	for off := int64(0); off <= int64(len(enc)); off++ {
		src := faultio.ErrAfter(bytes.NewReader(enc), off, synthetic)
		tr, err := trace.NewReader(src)
		if off < offsets[0] {
			if !errors.Is(err, synthetic) {
				return fmt.Errorf("errafter: header fault at %d surfaced %v, want the injected error", off, err)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("errafter: offset %d: NewReader: %w", off, err)
		}
		_, err = tr.ReadAll()
		if !errors.Is(err, synthetic) {
			return fmt.Errorf("errafter: offset %d surfaced %v, want the injected error", off, err)
		}
		if errors.Is(err, trace.ErrTruncated) {
			return fmt.Errorf("errafter: offset %d misclassified a device fault as truncation", off)
		}
	}
	return nil
}

// UploadTruncationSweep posts every prefix of recs' encoding to a live
// serve.Server upload endpoint and asserts the HTTP contract at each cut:
// header cuts and mid-record cuts are client errors (400), boundary cuts
// simulate the delivered prefix with counters identical to a local
// sim.Engine run, and no cut leaks an active job. Returns the server's
// final stats for callers that want to assert on traffic counts.
func UploadTruncationSweep(recs []trace.Record, predictorName string) (*ServeSweepReport, error) {
	enc, offsets, err := EncodeBoundaries(recs)
	if err != nil {
		return nil, err
	}
	pred, ok := bench.NewPredictor(predictorName)
	if !ok {
		return nil, fmt.Errorf("upload sweep: unknown predictor %q", predictorName)
	}
	// Counters after every prefix length, from one incremental serial run.
	e := sim.New(pred)
	serial := make([]stats.Counters, len(recs)+1)
	serial[0] = e.Counters()[0]
	for i, r := range recs {
		e.Process(r)
		serial[i+1] = e.Counters()[0]
	}

	// Snapshot goroutines before the server exists: after the sweep and an
	// explicit shutdown, everything the server spawned must be gone.
	before := leakcheck.Take()
	srv, ts, shutdown := startServer()
	defer shutdown()
	url := ts.URL + "/v1/jobs?predictor=" + predictorName

	report := &ServeSweepReport{}
	for cut := int64(0); cut <= int64(len(enc)); cut++ {
		resp, err := http.Post(url, "application/x-ibt2", bytes.NewReader(enc[:cut]))
		if err != nil {
			return nil, fmt.Errorf("upload sweep: cut %d: %w", cut, err)
		}
		k, clean := boundaryIndex(offsets, cut)
		if cut < offsets[0] || !clean {
			msg, err := readError(resp)
			if err != nil {
				return nil, fmt.Errorf("upload sweep: cut %d: %w", cut, err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				return nil, fmt.Errorf("upload sweep: cut %d: status %d (%s), want 400", cut, resp.StatusCode, msg)
			}
			// The rejection must name the actual failure: a header cut is not
			// an IBT2 trace at all, a mid-record cut is a truncated upload.
			if cut < offsets[0] {
				if !strings.Contains(msg, "not an IBT2 trace") {
					return nil, fmt.Errorf("upload sweep: header cut %d rejected as %q", cut, msg)
				}
			} else if !strings.Contains(msg, "truncated") {
				return nil, fmt.Errorf("upload sweep: mid-record cut %d rejected as %q", cut, msg)
			}
			report.Rejected++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := readError(resp)
			return nil, fmt.Errorf("upload sweep: boundary cut %d: status %d (%s), want 200", cut, resp.StatusCode, msg)
		}
		cells, err := decodeEvents(resp)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("upload sweep: boundary cut %d: %w", cut, err)
		}
		if len(cells) != 1 {
			return nil, fmt.Errorf("upload sweep: boundary cut %d: %d cells, want 1", cut, len(cells))
		}
		if cells[0].Records != uint64(k) {
			return nil, fmt.Errorf("upload sweep: boundary cut %d simulated %d records, want %d", cut, cells[0].Records, k)
		}
		if err := countersMatch(cells[0], []stats.Counters{serial[k]}); err != nil {
			return nil, fmt.Errorf("upload sweep: boundary cut %d: %w", cut, err)
		}
		report.Accepted++
	}

	st := srv.Stats()
	if st.ActiveJobs != 0 {
		return nil, fmt.Errorf("upload sweep: %d jobs still active after the sweep", st.ActiveJobs)
	}
	if st.BadUploads != report.Rejected {
		return nil, fmt.Errorf("upload sweep: server counted %d bad uploads, harness rejected %d", st.BadUploads, report.Rejected)
	}
	report.Stats = st

	// Drain the server (idempotent; the defer becomes a no-op) and verify
	// every goroutine it spawned — workers, janitor, drain helpers — exited.
	shutdown()
	if leaked := before.Leaked(); len(leaked) > 0 {
		return nil, fmt.Errorf("upload sweep: %d goroutine(s) leaked past shutdown:\n%s",
			len(leaked), strings.Join(leaked, "\n"))
	}
	return report, nil
}

// SessionPredictTruncationSweep posts every prefix of recs' encoding to a
// fresh live session's predict endpoint and asserts the online learner's
// contract at each cut: a header cut is a 400 that leaves the session
// untouched; otherwise the pred lines equal, byte for byte, encoding/json's
// encoding of ProcessPredicted over the records wholly inside the cut, the
// stream ends in "done" at a record boundary and in a truncation "error"
// line exactly when the cut falls mid-record, and the session's GET state
// equals state.SaveBytes of a local engine fed those records. After the
// sweep and a shutdown, no goroutine the server spawned may survive.
func SessionPredictTruncationSweep(recs []trace.Record, predictorName string) (*ServeSweepReport, error) {
	enc, offsets, err := EncodeBoundaries(recs)
	if err != nil {
		return nil, err
	}
	pred, ok := bench.NewPredictor(predictorName)
	if !ok {
		return nil, fmt.Errorf("predict sweep: unknown predictor %q", predictorName)
	}
	// One incremental local run: the pred lines of every prefix are a
	// prefix of one stream (predEnd[k] bytes long after k records), and
	// snaps[k] is the engine's snapshot after k records.
	e := sim.New(pred)
	var lines bytes.Buffer
	jenc := json.NewEncoder(&lines)
	predEnd := make([]int, 1, len(recs)+1)
	snaps := [][]byte{state.SaveBytes(e)}
	for _, r := range recs {
		if p, dispatched := e.ProcessPredicted(r); dispatched {
			ev := serve.PredictEvent{
				Type: "pred", Seq: e.Counters()[0].Lookups,
				PC: r.PC, Actual: r.Target, Predicted: p.Predicted, Correct: p.Correct,
			}
			if p.Predicted {
				ev.Target = p.Target
			}
			if err := jenc.Encode(ev); err != nil {
				return nil, err
			}
		}
		predEnd = append(predEnd, lines.Len())
		snaps = append(snaps, bytes.Clone(state.SaveBytes(e)))
	}

	before := leakcheck.Take()
	_, ts, shutdown := startServer()
	defer shutdown()
	report := &ServeSweepReport{}
	for cut := int64(0); cut <= int64(len(enc)); cut++ {
		k, clean := boundaryIndex(offsets, cut)
		if err := predictCut(ts.URL, predictorName, enc[:cut], cut < offsets[0], clean, lines.Bytes()[:predEnd[k]], snaps[k]); err != nil {
			return nil, fmt.Errorf("predict sweep: cut %d (%d whole records): %w", cut, k, err)
		}
		if clean && cut >= offsets[0] {
			report.Accepted++
		} else {
			report.Rejected++
		}
	}
	shutdown()
	http.DefaultClient.CloseIdleConnections()
	if leaked := before.Leaked(); len(leaked) > 0 {
		return nil, fmt.Errorf("predict sweep: %d goroutine(s) leaked past shutdown:\n%s",
			len(leaked), strings.Join(leaked, "\n"))
	}
	return report, nil
}

// predictCut runs one cut of the predict sweep against a fresh session:
// body is the cut stream, header whether the cut falls inside the header,
// clean whether it falls on a record boundary, want the expected pred lines
// and snap the expected snapshot afterwards. The session is closed after.
func predictCut(base, predictorName string, body []byte, header, clean bool, want, snap []byte) error {
	spec, _ := json.Marshal(serve.SessionSpec{Predictor: predictorName})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	var st serve.SessionStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create session: status %d: %v", resp.StatusCode, err)
	}
	sessURL := base + "/v1/sessions/" + st.ID
	defer func() {
		if req, err := http.NewRequest(http.MethodDelete, sessURL, nil); err == nil {
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()

	resp, err = http.Post(sessURL+"/predict", "application/x-ibt2", bytes.NewReader(body))
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if header {
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), "not an IBT2 trace") {
			return fmt.Errorf("header cut answered %d %q, want 400 not an IBT2 trace", resp.StatusCode, got)
		}
	} else {
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d (%s), want 200", resp.StatusCode, got)
		}
		if !bytes.HasPrefix(got, want) {
			return fmt.Errorf("pred lines diverge from ProcessPredicted's:\n got %q\nwant %q", got, want)
		}
		var last serve.PredictEvent
		if err := json.Unmarshal(got[len(want):], &last); err != nil {
			return fmt.Errorf("after the pred lines, want one terminal line, got %q: %v", got[len(want):], err)
		}
		switch {
		case clean && last.Type != "done":
			return fmt.Errorf("boundary cut ended with %+v, want done", last)
		case !clean && (last.Type != "error" || !strings.Contains(last.Error, "truncated")):
			return fmt.Errorf("mid-record cut ended with %+v, want a truncation error line", last)
		}
	}

	resp, err = http.Get(sessURL + "/state")
	if err != nil {
		return err
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET state: status %d: %v", resp.StatusCode, err)
	}
	if !bytes.Equal(served, snap) {
		return fmt.Errorf("GET state (%d bytes) differs from the local engine's snapshot (%d bytes)", len(served), len(snap))
	}
	return nil
}

// ServeSweepReport summarizes a serving sweep: how many cuts were served as
// clean prefixes, how many were shed as client errors (or, for a predict
// stream, ended in an error line), and, for the upload sweep, the server's
// final stats snapshot.
type ServeSweepReport struct {
	Accepted uint64
	Rejected uint64
	Stats    serve.Stats
}

// readError drains a JSON error response body.
func readError(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("undecodable error body: %w", err)
	}
	return body.Error, nil
}
