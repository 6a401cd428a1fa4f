package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is a child ppmserved process listening on loopback.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	http  *http.Client
	instr *instrCounter // the daemon's user-mode instructions

	wg   sync.WaitGroup // the stderr reader
	mu   sync.Mutex
	logs []string // every stderr line, for the drain check and diagnostics
}

// startDaemon runs bin on an ephemeral loopback port and waits until it
// reports the bound address. conns bounds the client's connections.
func startDaemon(bin string, conns int, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "20s"}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...)}
	// Should this process die without draining the daemon, the kernel
	// sends the daemon SIGTERM.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ppmserved: %w", err)
	}
	addr := make(chan string, 1)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs = append(d.logs, line)
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "ppmserved: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		close(addr)
	}()
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = d.cmd.Wait()
			return nil, fmt.Errorf("ppmserved exited before listening: %s", d.log())
		}
		d.base = "http://" + a
	case <-timeout.C:
		_ = d.cmd.Process.Kill()
		d.wg.Wait()
		_ = d.cmd.Wait()
		return nil, errors.New("ppmserved did not report its address within 60s")
	}
	d.http = newClient(conns)
	if d.instr, err = openInstr(d.pid()); err != nil {
		d.instr = &instrCounter{}
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, " | ")
}

// stop sends SIGTERM, waits for the process, and checks that the drain was
// clean: exit status 0 and no aborted jobs.
func (d *daemon) stop() error {
	d.instr.close()
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal ppmserved: %w", err)
	}
	d.wg.Wait()
	err := d.cmd.Wait()
	logs := d.log()
	if err != nil {
		return fmt.Errorf("ppmserved drain failed: %v (%s)", err, logs)
	}
	if !strings.Contains(logs, "ppmserved: stopped") || strings.Contains(logs, "drain timed out") {
		return fmt.Errorf("ppmserved drain unclean: %s", logs)
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// newClient returns an HTTP client that holds at most conns keep-alive
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request on the shared client and returns the status and the
// whole body.
func (d *daemon) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	return d.doOn(ctx, d.http, method, path, ctype, body)
}

// doOn is do on client cl.
func (d *daemon) doOn(ctx context.Context, cl *http.Client, method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON decodes a 200 response of path into v.
func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	code, data, err := d.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, data)
	}
	return json.Unmarshal(data, v)
}

// stats reads /statsz.
func (d *daemon) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	err := d.getJSON(ctx, "/statsz", &st)
	return st, err
}

// allocMB reads the daemon's cumulative heap allocation from the expvar
// memstats it publishes at /debug/vars, in MiB.
func (d *daemon) allocMB(ctx context.Context) (float64, error) {
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
		} `json:"memstats"`
	}
	if err := d.getJSON(ctx, "/debug/vars", &vars); err != nil {
		return 0, err
	}
	return float64(vars.Memstats.TotalAlloc) / (1 << 20), nil
}

// opCounts tallies one client's operations and their failures by kind.
type opCounts struct {
	mu               sync.Mutex
	ops, bad         int
	http429, httpErr int // failures that were HTTP status codes
	busy             int // of httpErr, 409 "session busy" answers
	firstErr         error
}

// statusErr is an unexpected HTTP status.
type statusErr struct {
	op   string
	code int
	body string
}

func (e *statusErr) Error() string { return fmt.Sprintf("%s: status %d: %s", e.op, e.code, e.body) }

// record counts one finished operation: success, or a failure classed by
// its HTTP status.
func (c *opCounts) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if err == nil {
		return
	}
	c.bad++
	if se := (*statusErr)(nil); errors.As(err, &se) {
		switch {
		case se.code == http.StatusTooManyRequests:
			c.http429++
		case se.code == http.StatusConflict && strings.Contains(se.body, "session busy"):
			c.busy++
			c.httpErr++
		default:
			c.httpErr++
		}
	}
	if c.firstErr == nil {
		c.firstErr = err
	}
}
