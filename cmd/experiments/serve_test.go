package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tracecache"
)

// TestServedMatrixByteIdenticalToSerialRun pins the service's determinism
// contract: a fig6 job submitted to ppmserved's handler, streamed back as
// NDJSON and rendered with serve.RenderMatrix is byte-for-byte the output of
// a serial (-j 1) cmd/experiments run of the same cells. Raw counters travel
// the wire and both sides share the formatting code, so any divergence —
// float drift, ordering, column layout — fails here.
func TestServedMatrixByteIdenticalToSerialRun(t *testing.T) {
	const events = 2000

	var want bytes.Buffer
	renderExperiments(&want, []string{"fig6"}, 1, tracecache.New(0), events)

	srv := serve.New(serve.Config{MaxConcurrent: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(serve.JobSpec{Suite: "fig6", Events: events})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var cells []serve.CellResult
	state := ""
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "cell":
			cells = append(cells, *ev.Cell)
		case "done":
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if state != serve.StateDone {
		t.Fatalf("job finished in state %q", state)
	}

	var got bytes.Buffer
	serve.RenderMatrix(&got, "Figure 6: misprediction ratios (%), 2K-entry predictors", cells)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("served matrix differs from serial cmd/experiments output\n--- serial ---\n%s\n--- served ---\n%s",
			want.String(), got.String())
	}
}
