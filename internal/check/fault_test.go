package check

import (
	"io"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/check/faultio"
	"repro/internal/trace"
)

// faultRecords is a small stream with every encoding shape: multi-byte
// varint deltas (large PC jumps), value-carrying MT records, and all record
// classes, so the byte-offset sweeps cross every field of every kind of
// record.
func faultRecords() []trace.Record {
	recs := RandomRecords(31, 40)
	recs = append(recs, trace.Record{
		PC: 1 << 60, Target: 1 << 59, Class: trace.IndirectJmp,
		Taken: true, MT: true, Value: 1 << 30, Gap: 1 << 20,
	})
	return recs
}

func TestTruncationSweepDirect(t *testing.T) {
	if err := TruncationSweep(faultRecords(), nil); err != nil {
		t.Error(err)
	}
}

func TestTruncationSweepShortReads(t *testing.T) {
	// The same sweep through 1..3-byte reads: buffered-refill paths must not
	// change any classification.
	wrap := func(r io.Reader) io.Reader { return faultio.ShortReads(r, 41, 3) }
	if err := TruncationSweep(faultRecords(), wrap); err != nil {
		t.Error(err)
	}
}

func TestErrAfterSweep(t *testing.T) {
	if err := ErrAfterSweep(faultRecords()); err != nil {
		t.Error(err)
	}
}

func TestUploadTruncationSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	report, err := UploadTruncationSweep(faultRecords(), "BTB")
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted == 0 || report.Rejected == 0 {
		t.Fatalf("sweep did not cover both outcomes: %+v", report)
	}
	if report.Stats.ActiveJobs != 0 {
		t.Fatalf("leaked active jobs: %+v", report.Stats)
	}

	// The server and every request are finished; any goroutine the sweep
	// started must wind down. Keep-alive conns are the one legitimate
	// leftover, so close them and then yield until the count returns to the
	// pre-sweep baseline.
	http.DefaultClient.CloseIdleConnections()
	for i := 0; i < 100_000; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
}

func TestSessionPredictTruncationSweep(t *testing.T) {
	report, err := SessionPredictTruncationSweep(faultRecords(), "PPM-hyb")
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted == 0 || report.Rejected == 0 {
		t.Fatalf("sweep did not cover both outcomes: %+v", report)
	}
}
