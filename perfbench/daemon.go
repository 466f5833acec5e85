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
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process the benchmark started: an itscs-serve daemon or the
// reference server.
type child struct {
	cmd     *exec.Cmd
	drained chan struct{} // closed when the stdout reader has finished
}

// daemon is one itscs-serve process started by the benchmark.
type daemon struct {
	*child
	ingest  string
	httpURL string
	client  *http.Client
	buf     bytes.Buffer // response body of the latest get; valid until the next
}

// daemonArgs is the itscs-serve command line every workload uses: the
// QuickScale shape, write-ahead logging with interval fsync, reputation on
// (the default), ephemeral ports, JSON logs for the address handshake.
func daemonArgs(dataDir string) []string {
	return []string{
		"-ingest", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-participants", strconv.Itoa(participants),
		"-window", strconv.Itoa(windowSlots),
		"-hop", strconv.Itoa(hopSlots),
		"-max-fleets", strconv.Itoa(maxFleets),
		"-data-dir", dataDir,
		"-fsync", "interval",
		"-log-format", "json",
	}
}

// live tracks every started child so an early exit can stop them all.
// Once closed, no new child may start.
var live struct {
	mu     sync.Mutex
	cs     map[*child]struct{}
	closed bool
}

// startChild starts cmd, registers it with live and hands its standard
// output to read, which runs until the output ends. The child dies with
// the benchmark if the benchmark is killed before it can stop it.
func startChild(cmd *exec.Cmd, read func(io.Reader)) (*child, error) {
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	live.mu.Lock()
	if live.closed {
		live.mu.Unlock()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, errors.New("benchmark stopping")
	}
	if live.cs == nil {
		live.cs = map[*child]struct{}{}
	}
	live.cs[c] = struct{}{}
	live.mu.Unlock()
	go func() {
		defer close(c.drained)
		read(out)
		_, _ = io.Copy(io.Discard, out)
	}()
	return c, nil
}

// stop SIGKILLs the child and waits for it and its output reader. Every
// daemon ends this way: a graceful shutdown would push each fleet's open
// partial window through detection first.
func (c *child) stop() {
	_ = c.cmd.Process.Kill()
	<-c.drained
	_ = c.cmd.Wait()
	live.mu.Lock()
	delete(live.cs, c)
	live.mu.Unlock()
}

// stopAll stops every child still running and lets no new one start.
func stopAll() {
	live.mu.Lock()
	live.closed = true
	cs := make([]*child, 0, len(live.cs))
	for c := range live.cs {
		cs = append(cs, c)
	}
	live.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// startDaemon execs itscs-serve on dataDir and returns once /readyz
// answers 200, with the time from exec to that answer: the set-up time,
// which includes startup recovery when dataDir holds a log.
func startDaemon(bin, dataDir string) (*daemon, time.Duration, error) {
	addrs := make(chan [2]string, 1)
	began := time.Now()
	c, err := startChild(exec.Command(bin, daemonArgs(dataDir)...), func(out io.Reader) { readLog(out, addrs) })
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{child: c}
	select {
	case a := <-addrs:
		d.ingest, d.httpURL = a[0], "http://"+a[1]
	case <-d.drained:
		d.stop()
		return nil, 0, errors.New("itscs-serve exited before serving")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("itscs-serve did not report its addresses")
	}
	d.client = &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := d.client.Get(d.httpURL + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(began), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("itscs-serve never became ready")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// readLog reads the daemon's stdout (its structured log), hands the bound
// addresses from the "serving" record to addrs, and echoes warnings and
// errors to stderr.
func readLog(out io.Reader, addrs chan<- [2]string) {
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		var rec struct {
			Level  string `json:"level"`
			Msg    string `json:"msg"`
			Ingest string `json:"ingest"`
			HTTP   string `json:"http"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		if !sent && rec.Msg == "serving" {
			addrs <- [2]string{rec.Ingest, rec.HTTP}
			sent = true
		}
		if rec.Level == "WARN" || rec.Level == "ERROR" {
			fmt.Fprintln(os.Stderr, "itscs-serve:", sc.Text())
		}
	}
}

func (d *daemon) ingestAddr() string { return d.ingest }

// pollEvery paces result polling: fine against a 5 s window, and cheap
// enough that serving the polls costs the daemon about one percent.
const pollEvery = 10 * time.Millisecond

// waitWindow polls GET /results/{fleet} until the newest result is window
// seq or later.
func (d *daemon) waitWindow(ctx context.Context, fleet string, seq int) (*windowResult, error) {
	url := d.httpURL + "/results/" + fleet
	for {
		body, status, err := d.get(ctx, url)
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			if got, ok := peekSeq(body); ok && got >= seq {
				var res windowResult
				if err := json.Unmarshal(body, &res); err != nil {
					return nil, fmt.Errorf("decode result: %w", err)
				}
				if res.Seq != seq {
					return nil, fmt.Errorf("newest window is %d, want %d", res.Seq, seq)
				}
				return &res, nil
			}
		} else if status != http.StatusNoContent {
			return nil, fmt.Errorf("GET %s: status %d", url, status)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("waiting for window %d: %w", seq, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// peekSeq reads the "seq" field of a result without decoding the flags.
func peekSeq(body []byte) (int, bool) {
	i := bytes.Index(body, []byte(`"seq":`))
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(body[i+len(`"seq":`):], " ")
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

func (d *daemon) get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	// One buffer serves every poll, so polling makes little garbage for
	// the generator's collector to compete with the daemon over.
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, fmt.Errorf("GET %s: %w", url, err)
	}
	return d.buf.Bytes(), resp.StatusCode, nil
}

// engineCounts is the part of GET /metrics?format=json the correctness
// gate reads.
type engineCounts struct {
	Ingested         uint64 `json:"ingested"`
	Replayed         uint64 `json:"replayed"`
	ReportsStamped   uint64 `json:"reports_stamped"`
	WindowsClosed    uint64 `json:"windows_closed"`
	WindowsProcessed uint64 `json:"windows_processed"`
	WindowsDropped   uint64 `json:"windows_dropped"`
	WindowsFailed    uint64 `json:"windows_failed"`
	Recovery         *struct {
		ReplayedRecords uint64 `json:"replayed_records"`
	} `json:"recovery"`
}

func (d *daemon) counts() (engineCounts, error) {
	var c engineCounts
	body, status, err := d.get(context.Background(), d.httpURL+"/metrics?format=json")
	if err != nil {
		return c, err
	}
	if status != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: status %d", status)
	}
	if err := json.Unmarshal(body, &c); err != nil {
		return c, fmt.Errorf("decode /metrics: %w", err)
	}
	return c, nil
}

// peakRSSMB reads the daemon's VmHWM, its peak resident set, in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return vmHWM(b)
}

func vmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
