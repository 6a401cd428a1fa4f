// Command perfbench is the repository's benchmark: one command that
// measures a workload end to end from outside the program, checks that the
// program's outputs are correct, and with -trace 1 attributes the time to
// layers. See README.md for the workloads, the metrics and how to read them.
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and ppmserved from the checkout's source and
// runs it from the repository root. The last line of standard output is the
// result: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
)

// defaultSeed reproduces the paper suite unchanged.
const defaultSeed = 0

// setupRepeats is how many times each run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// warmup is how long the workload runs, untimed, between set-up and
// measuring, so that the first measured operations do not pay for a cold
// heap, cold connections or a daemon that has not yet grown its pools.
const warmup = 2 * time.Second

// runEnv is what every workload reads: where the checkout is, the daemon
// binary, the seed, the host width and the span recorder.
type runEnv struct {
	root      string
	daemonBin string
	seed      uint64
	nproc     int
	tr        *tracer
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// foldConfig folds a non-default seed into a config's generator seed.
func foldConfig(cfg workload.Config, seed uint64) workload.Config {
	if seed != defaultSeed {
		cfg.Seed = mix64(cfg.Seed ^ mix64(seed))
	}
	return cfg
}

func foldSuite(cfgs []workload.Config, seed uint64) []workload.Config {
	for i := range cfgs {
		cfgs[i] = foldConfig(cfgs[i], seed)
	}
	return cfgs
}

// host is the stamp every result carries, so numbers from different
// machines are never compared unknowingly.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostStamp(root string) host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit resolves HEAD from the checkout's .git directory, if it has one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file of the module, so a result
// names the code it measured even where there is no git history.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spec is the part of BENCHMARK.json the command checks its output against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkSpec verifies that m holds exactly the declared metrics, with their
// units.
func checkSpec(m *metrics, want []specMetric) error {
	var errs []string
	for _, w := range want {
		got, ok := m.vals[w.Name]
		switch {
		case !ok:
			errs = append(errs, "missing "+w.Name)
		case got.Unit != w.Unit:
			errs = append(errs, fmt.Sprintf("%s unit %s, declared %s", w.Name, got.Unit, w.Unit))
		}
	}
	if len(m.vals) != len(want) {
		errs = append(errs, fmt.Sprintf("%d metrics measured, %d declared", len(m.vals), len(want)))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// phaseOut is one measuring phase: the workload's own end-to-end metrics,
// its wall-clock figures, attempted and failed operations, of those the 409
// "session busy" answers, and the first failure.
type phaseOut struct {
	m, wall  *metrics
	ops, bad int
	busy     int
	err      error
}

// bencher is one set-up workload.
type bencher interface {
	phase(ctx context.Context, d time.Duration) phaseOut
	// rssMB is the peak resident set of the process serving the workload.
	rssMB() (float64, error)
	digest() string
	close() error
}

// setup builds a workload; on error it releases whatever it started.
func setup(ctx context.Context, name string, env *runEnv) (bencher, error) {
	switch name {
	case "grid":
		g, err := setupGrid(env)
		if err != nil {
			return nil, err
		}
		return g, nil
	case "served":
		s, err := setupServed(ctx, env)
		if err != nil {
			if s != nil && s.d != nil {
				_ = s.d.stop()
			}
			return nil, err
		}
		return s, nil
	case "sessions":
		s, err := setupSessions(ctx, env)
		if err != nil {
			if s != nil && s.d != nil {
				_ = s.d.stop()
			}
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want grid, served or sessions)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		name    = fset.String("workload", "grid", "workload: grid, served or sessions")
		seed    = fset.Uint64("seed", defaultSeed, "workload seed; 0 reproduces the paper suite")
		seconds = fset.Int("seconds", 15, "measuring time per run")
		traced  = fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		root    = fset.String("root", ".", "repository checkout to measure")
		daemon  = fset.String("daemon", "", "ppmserved binary built from the checkout")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	if _, err := os.Stat(*daemon); err != nil {
		fmt.Fprintln(stderr, "perfbench: -daemon:", err)
		return 1
	}

	// An interrupted run stops its clients and still drains its daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := &runEnv{root: *root, daemonBin: *daemon, seed: *seed, nproc: runtime.NumCPU(), tr: &tracer{}}
	h := hostStamp(*root)
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *traced)

	// Set up several times; keep the last.
	var b bencher
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				fmt.Fprintln(stderr, "perfbench: set-up teardown:", err)
				return 1
			}
		}
		t := now()
		b, err = setup(ctx, *name, env)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, (now() - t).Seconds())
	}

	res := newMetrics()
	res.set("setup_s", median(setups), "s")
	res.note("setup_s", "median of %d set-ups", len(setups))
	var attempted, failed int
	var problems []string
	note := func(err error) {
		if err != nil {
			problems = append(problems, err.Error())
		}
	}
	d := time.Duration(*seconds) * time.Second

	// Warm-up operations are checked and counted like measured ones.
	w := b.phase(ctx, warmup)
	note(w.err)
	var busy int
	if *traced == 0 {
		out := b.phase(ctx, d)
		attempted, failed, busy = w.ops+out.ops, w.bad+out.bad, w.busy+out.busy
		note(out.err)
		if out.m != nil {
			res.merge(out.m)
		}
		rss, rerr := b.rssMB()
		note(rerr)
		res.set("rss_mb", rss, "MB")
		if out.wall != nil {
			fmt.Fprintln(stdout, "wall clock (reported, not gated):")
			out.wall.report(stdout)
		}
	} else {
		res = newMetrics()
		un := b.phase(ctx, d/2)
		note(un.err)
		env.tr.on = true
		from := now()
		tm := b.phase(ctx, d/2)
		to := now()
		env.tr.on = false
		note(tm.err)
		attempted, failed, busy = w.ops+un.ops+tm.ops, w.bad+un.bad+tm.bad, w.busy+un.busy+tm.busy
		sum := summarize(env.tr.spans, from, to)
		sum.print(stdout)
		if un.wall != nil && tm.wall != nil {
			res.merge(un.wall)
			base := un.wall.vals["wall.main_p50_ms"].Value
			res.set("spans.overhead_pct", 100*(tm.wall.vals["wall.main_p50_ms"].Value-base)/base, "%")
		}
		res.set("spans.coverage_pct", 100*sum.Coverage, "%")
		dir := filepath.Join(*root, ".bench_build", "perfbench")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			note(err)
		} else {
			path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
			note(writeSpans(path, h, *name, *seed, env.tr.spans))
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
	}
	fmt.Fprintf(stdout, "digest %s seed %d %s\n", *name, *seed, b.digest())
	if err := b.close(); err != nil {
		failed++
		note(err)
	}

	declared := sp.EndToEnd
	if *traced == 1 {
		l := &ledger{env: env, m: res}
		l.layers()
		l.grid()
		l.state()
		ops, bad := l.serve(ctx)
		attempted, failed = attempted+ops, failed+bad
		for _, e := range l.errs {
			failed++
			problems = append(problems, e)
		}
		problems = append(problems, l.opErrs...)
		res.set("fail_ratio", float64(failed)/float64(max(attempted, 1)), "ratio")
		declared = sp.PerLayer
	}
	note(checkSpec(res, declared))

	fmt.Fprintf(stdout, "%s seed %d: %d operations, %d failed, %d of them 409 session busy\n",
		*name, *seed, attempted, failed, busy)
	res.report(stdout)
	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench: FAIL:", p)
	}
	correct := failed == 0 && len(problems) == 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, res.vals})
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}
