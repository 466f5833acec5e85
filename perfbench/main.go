// Command perfbench is the repository benchmark. It drives the real
// itscs-serve daemon over TCP and HTTP from one generator process and
// prints the end-to-end metrics of one workload, or, with -trace 1,
// assembles the same layers in-process, times the calls into each, and
// prints the per-layer metrics. README.md describes the workloads and
// metrics; run.sh builds everything and is the entry point.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: the attempt and failure counts,
// the correctness violations, and the metrics.
type report struct {
	attempted  int
	failed     int
	violations []string
	metrics    map[string]metric
	notes      []string
	// refMS is the run's median reference-kernel time, part of the host
	// fingerprint of every output.
	refMS float64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a violation unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	workDir  string
}

var workloads = map[string]struct {
	untraced func(cfg config, dir string, rep *report) error
	traced   func(cfg config, dir string, rep *report) error
}{
	"quick_stream": {quickStream, tracedQuickStream},
	"crash_replay": {crashReplay, tracedCrashReplay},
}

func main() {
	code := run(os.Args[1:], os.Stdout)
	stopAll()
	os.Exit(code)
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	var refMode bool
	fs.StringVar(&cfg.workload, "workload", "", "quick_stream or crash_replay")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same report streams")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured load phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced in-process assembly and prints per-layer metrics")
	fs.StringVar(&cfg.serveBin, "serve", "", "path to the itscs-serve binary")
	fs.StringVar(&cfg.workDir, "work", "", "scratch directory for data dirs and traces")
	fs.BoolVar(&refMode, "refserver", false, "serve as the reference server (refserver.go) until killed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if refMode {
		return serveRef()
	}
	wl, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	case cfg.seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case cfg.workDir == "":
		fmt.Fprintln(os.Stderr, "perfbench: -work is required")
		return 2
	case traceFlag == 0 && cfg.serveBin == "":
		fmt.Fprintln(os.Stderr, "perfbench: -serve is required without -trace 1")
		return 2
	}
	cfg.trace = traceFlag == 1

	// A signal must not leave children behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep := newReport()
	body := wl.untraced
	if cfg.trace {
		body = wl.traced
	}
	err = body(cfg, dir, rep)
	if err != nil {
		// An operation that could not complete is a failed run, not a
		// measurement: no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printResult(out, cfg, rep)
	if len(rep.violations) > 0 {
		return 1
	}
	return 0
}

// printResult writes the host fingerprint, the notes, the correctness
// verdict and, last, the result line.
func printResult(out io.Writer, cfg config, rep *report) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fp := fingerprint()
	fp["host_ref_ms"] = rep.refMS
	fpj, _ := json.Marshal(fp)
	fmt.Fprintf(w, "host %s\n", fpj)
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d mode %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note", n)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "failures %d of %d attempted (ratio %.6f)\n", rep.failed, rep.attempted, ratio)
	for _, v := range rep.violations {
		fmt.Fprintln(w, "VIOLATION", v)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.violations) == 0, rep.attempted, rep.failed, rep.metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// fingerprint identifies the host, so runs on different hosts are not
// compared blind.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupDaemons starts the daemon n times, each on a data dir prepare
// fills, checks each with verify, and returns the set-up times and the
// last daemon, still running; the others are stopped. Several starts make
// set-up time a median, not one sample.
func setupDaemons(cfg config, dir string, n int, prepare func(dataDir string) error, verify func(*daemon) error) ([]float64, *daemon, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", i))
		if err := prepare(dataDir); err != nil {
			return nil, nil, err
		}
		d, setup, err := startDaemon(cfg.serveBin, dataDir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		if verify != nil {
			if err := verify(d); err != nil {
				d.stop()
				return nil, nil, err
			}
		}
		if i == n-1 {
			return setups, d, nil
		}
		d.stop()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, errors.New("no set-up requested")
}

func emptyDir(dataDir string) error { return os.MkdirAll(dataDir, 0o755) }

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// secondsDeadline is the end of a measured phase that starts now.
func secondsDeadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds) * time.Second)
}
