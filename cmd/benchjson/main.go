// Command benchjson runs a benchmark suite and renders the results as
// machine-readable JSON. It has two modes:
//
// The default mode runs the predictor throughput benchmarks with -benchmem,
// one row per predictor: name, ns/op, B/op, allocs/op and the iteration
// count. `make bench` regenerates the checked-in snapshot
// BENCH_predictors.json, seeding the perf trajectory every future
// optimisation PR is measured against; the allocs_per_op column should stay
// 0 — the same invariant the hotpath analyzer and the zero-alloc tests
// enforce. The benchmark time is fixed in operation-count form
// (-benchtime=200000x) so the snapshot's shape — rows, iteration counts —
// is identical across machines; only the ns/op column reflects the host.
//
// With -experiments it instead runs BenchmarkExperiments in
// cmd/experiments at -benchtime=1x: the full -all -ext grid through the
// trace cache and the block engine on one worker (blocks-j1-cached) and on
// four (blocks-j4-cached). The snapshot (`make bench-experiments` →
// BENCH_experiments.json) records each wall-clock and the cache traffic
// metrics proving each suite trace was generated exactly once.
//
// With -sessions it runs BenchmarkLiveSessions in internal/serve at a fixed
// op count: one op is one whole live session (create + predict stream over
// real HTTP), and the custom metrics — sessions/s, state-bytes/session,
// predict-p50-ms/predict-p99-ms — land in each row's metrics map. `make
// bench-sessions` regenerates the checked-in BENCH_sessions.json.
//
// The determinism analyzer bans time.Now outside tests, so all timing
// comes from the testing framework's benchmark clock, parsed from ns/op.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// result is one benchmark row of the JSON snapshot. Metrics carries any
// custom b.ReportMetric units (e.g. cache-hits) beyond the standard triple.
type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file ('-' for stdout; default depends on mode)")
	benchRe := flag.String("bench", "", "benchmark regexp passed to go test (default depends on mode)")
	benchtime := flag.String("benchtime", "", "benchtime passed to go test (default depends on mode)")
	experiments := flag.Bool("experiments", false, "snapshot the experiment-grid benchmark (one vs four workers) instead of predictor throughput")
	sessions := flag.Bool("sessions", false, "snapshot the live-session benchmark (sessions/s, predict latency, bytes/session) instead of predictor throughput")
	flag.Parse()

	pkg, defRe, defTime, defOut := ".", "^BenchmarkPredictorThroughput$", "200000x", "BENCH_predictors.json"
	if *experiments {
		pkg, defRe, defTime, defOut = "./cmd/experiments", "^BenchmarkExperiments$", "1x", "BENCH_experiments.json"
	}
	if *sessions {
		// Fixed op count keeps the snapshot's shape machine-independent,
		// like the predictor mode; only the timing columns reflect the host.
		pkg, defRe, defTime, defOut = "./internal/serve", "^BenchmarkLiveSessions$", "100x", "BENCH_sessions.json"
	}
	if *benchRe == "" {
		*benchRe = defRe
	}
	if *benchtime == "" {
		*benchtime = defTime
	}
	if *out == "" {
		*out = defOut
	}

	cmd := exec.Command("go", "test", "-run=^$",
		"-bench="+*benchRe, "-benchmem", "-benchtime="+*benchtime, pkg)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: go test:", err)
		os.Exit(2)
	}

	results, err := parse(stdout.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results matched", *benchRe)
		os.Exit(2)
	}

	payload := map[string]any{"benchmarks": results}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	data = append(data, '\n')

	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	fmt.Printf("benchjson: wrote %d benchmark rows to %s\n", len(results), *out)
}

// parse extracts rows from `go test -bench` output. A -benchmem line looks
// like:
//
//	BenchmarkPredictorThroughput/BTB-8  200000  52.1 ns/op  0 B/op  0 allocs/op
//
// Unknown units (custom b.ReportMetric values such as cache-hits) land in
// the row's Metrics map. Rows keep the tool's output order, which follows
// the declared sub-benchmark order and is therefore deterministic.
func parse(output string) ([]result, error) {
	var results []result
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := result{Name: benchName(fields[0])}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed iteration count in %q", line)
		}
		r.Iterations = iters
		for i := 2; i+1 < len(fields); i += 2 {
			v := fields[i]
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp, err = strconv.ParseFloat(v, 64)
			case "B/op":
				r.BytesPerOp, err = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, err = strconv.ParseInt(v, 10, 64)
			default:
				var f float64
				f, err = strconv.ParseFloat(v, 64)
				if err == nil {
					if r.Metrics == nil {
						r.Metrics = make(map[string]float64)
					}
					r.Metrics[unit] = f
				}
			}
			if err != nil {
				return nil, fmt.Errorf("malformed value %q in %q", v, line)
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// benchName strips the benchmark function prefix and the trailing
// -GOMAXPROCS suffix, leaving the sub-benchmark label (e.g. "BTB" or
// "blocks-j1-cached"). The suffix is only present when GOMAXPROCS > 1 and is
// always numeric — labels like "TC-PIB" must survive.
func benchName(full string) string {
	if i := strings.LastIndexByte(full, '-'); i > 0 {
		if _, err := strconv.Atoi(full[i+1:]); err == nil {
			full = full[:i]
		}
	}
	if _, sub, ok := strings.Cut(full, "/"); ok {
		return sub
	}
	return strings.TrimPrefix(full, "Benchmark")
}
