package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"
)

// target is the system under test as the generator sees it: a TCP ingest
// address speaking the mcs line protocol, and a way to wait for a window's
// result. The daemon answers over HTTP; the traced in-process assembly
// answers from its result subscription.
type target interface {
	ingestAddr() string
	// waitWindow blocks until window seq of fleet is published and returns
	// it, or fails once ctx ends.
	waitWindow(ctx context.Context, fleet string, seq int) (*windowResult, error)
}

// windowResult is the part of a published window the generator checks.
type windowResult struct {
	Seq       int        `json:"seq"`
	StartSlot int        `json:"start_slot"`
	EndSlot   int        `json:"end_slot"`
	Flags     []cellFlag `json:"flags"`
	Sweeps    int        `json:"sweeps"`
}

// conn is one participant connection: stop-and-wait, one ack per report.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial ingest: %w", err)
	}
	return &conn{c: c, r: bufio.NewReader(c)}, nil
}

var ackOK = []byte("ok\n")

// send writes one report line and reads its ack. A refusal ("err …") is
// returned as nacked with its reason; err is a transport failure.
func (c *conn) send(line []byte) (nacked string, err error) {
	if _, err := c.c.Write(line); err != nil {
		return "", fmt.Errorf("send: %w", err)
	}
	ack, err := c.r.ReadSlice('\n')
	if err != nil {
		return "", fmt.Errorf("read ack: %w", err)
	}
	if bytes.Equal(ack, ackOK) {
		return "", nil
	}
	return string(bytes.TrimSpace(ack)), nil
}

func (c *conn) close() { _ = c.c.Close() }

// tally counts what a load phase attempted and how it went.
type tally struct {
	sent      int
	acked     int
	nacked    int
	transport int
	firstErr  string
	rtt       []int64 // ns, one per acked report
	// slice is each rtt sample's interval: the second of a flood it was
	// sent in, or its chunk of a windowed stream.
	slice []int32
	wall  time.Duration
}

// errRefused marks a report the server answered with "err …".
var errRefused = errors.New("report refused")

// exchange sends one line over c and records the outcome, filing an acked
// report's round trip under interval slice. A refusal returns an error
// wrapping errRefused; any other error is a transport failure.
func (t *tally) exchange(c *conn, line []byte, slice int32) (time.Duration, error) {
	t0 := time.Now()
	t.sent++
	reason, err := c.send(line)
	rtt := time.Since(t0)
	switch {
	case err != nil:
		t.transport++
	case reason != "":
		t.nacked++
		err = fmt.Errorf("%w: %s", errRefused, reason)
	default:
		t.acked++
		t.rtt = append(t.rtt, int64(rtt))
		t.slice = append(t.slice, slice)
		return rtt, nil
	}
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
	return 0, err
}

// minSliceSamples is the fewest acks an interval needs to give a
// percentile of its own.
const minSliceSamples = 200

// intervals groups the acks' round trips in µs by interval, keeping the
// intervals with at least minSliceSamples acks.
func (t tally) intervals() map[int32][]float64 {
	groups := map[int32][]float64{}
	for i, ns := range t.rtt {
		groups[t.slice[i]] = append(groups[t.slice[i]], float64(ns)/float64(time.Microsecond))
	}
	for k, g := range groups {
		if len(g) < minSliceSamples {
			delete(groups, k)
		}
	}
	return groups
}

// ackPercentile is the p-th percentile of the acks' round trips in µs,
// taken in every interval with enough samples and then medianed over the
// intervals. A shared host has slow seconds; this keeps a few of them from
// deciding a run's tail, where one pooled percentile would not.
func (t tally) ackPercentile(p float64) float64 {
	var per []float64
	for _, g := range t.intervals() {
		per = append(per, percentile(g, p))
	}
	if len(per) == 0 {
		return percentile(durationsTo(t.rtt, time.Microsecond), p)
	}
	return median(per)
}

// ackRatio is the p-th percentile of t's acks divided by that of ref's in
// the same interval, medianed over the intervals both have enough samples
// in. With ref the reference server's tally, it is the daemon's ack cost
// in units of the frozen door's round trip at that moment.
func (t tally) ackRatio(ref tally, p float64) float64 {
	own, theirs := t.intervals(), ref.intervals()
	var per []float64
	for k, g := range own {
		if r, ok := theirs[k]; ok {
			per = append(per, percentile(g, p)/percentile(r, p))
		}
	}
	return median(per)
}

func (t tally) failed() int { return t.nacked + t.transport }

// ackHook, when set, sees every acked report's line index and round trip.
// The traced run uses it to subtract the time spent inside the server's
// Ingestor from the round trip.
type ackHook func(i int, rtt time.Duration)

// flood sends lines in order over one stop-and-wait connection until they
// run out or the deadline passes (zero means none), filing acks by the
// second they were sent in. No report of a flood closes a window.
//
// One participant leaves the two-core reference host short of saturation.
// With two connections the generator and the daemon oversubscribe both
// cores, queueing amplifies the host's own drift, and run-to-run spreads
// of throughput, ack p99 and peak RSS reached a quarter to a third,
// against about a tenth with one.
func flood(addr string, lines [][]byte, deadline time.Time, onAck ackHook) tally {
	load, _ := refFlood(addr, "", lines, deadline, onAck)
	return load
}

// Of every floodPeriod of a flood with a reference, the last refTurn goes
// to the reference server.
const (
	floodPeriod = 100 * time.Millisecond
	refTurn     = 20 * time.Millisecond
)

// refFlood is flood with turns of the reference server (refserver.go)
// interleaved when refAddr is not empty: of every floodPeriod the last
// refTurn sends the same lines, cycled, to the reference instead, so both
// see the host in the same state. The load's wall time counts its own
// turns only; the reference's acks are filed by second like the load's.
func refFlood(addr, refAddr string, lines [][]byte, deadline time.Time, onAck ackHook) (load, ref tally) {
	began := time.Now()
	c, err := dial(addr)
	if err != nil {
		load.transport++
		load.firstErr = err.Error()
		return load, ref
	}
	defer c.close()
	var rc *conn
	if refAddr != "" {
		if rc, err = dial(refAddr); err != nil {
			ref.transport++
			ref.firstErr = err.Error()
			return load, ref
		}
		defer rc.close()
	}
	load.rtt = make([]int64, 0, len(lines))
	load.slice = make([]int32, 0, len(lines))
	next, cycled := 0, 0
	turn := time.Now()
	for next < len(lines) {
		now := time.Now()
		if !deadline.IsZero() && now.After(deadline) {
			break
		}
		sec := int32(now.Sub(began) / time.Second)
		if rc != nil && now.Sub(turn) >= floodPeriod-refTurn {
			// The reference's turn: refTurn of exchanges, then back.
			load.wall += now.Sub(turn)
			for t0 := time.Now(); time.Since(t0) < refTurn; cycled++ {
				if _, err := ref.exchange(rc, lines[cycled%len(lines)], sec); err != nil {
					return load, ref
				}
			}
			turn = time.Now()
			continue
		}
		rtt, err := load.exchange(c, lines[next], sec)
		i := next
		next++
		if errors.Is(err, errRefused) {
			continue
		}
		if err != nil {
			break
		}
		if onAck != nil {
			onAck(i, rtt)
		}
	}
	load.wall += time.Since(turn)
	if rc == nil {
		load.wall = time.Since(began)
	}
	return load, ref
}

// windowSample is one window of a closed-loop windowed stream.
type windowSample struct {
	seq     int
	latency time.Duration // closing report acked → result visible
	sweeps  int           // ASD sweeps CORRECT ran, the window's work
	conf    confusion
	refMS   []float64 // reference kernel samples taken right after it
}

// windowRun is the outcome of a closed-loop windowed stream.
type windowRun struct {
	load tally
	// ref is the reference server's exchanges, filed by chunk like the
	// load's acks.
	ref     tally
	windows []windowSample
	refMS   []float64 // reference kernel samples taken between windows
}

// scored tallies the detection outcomes of the scored windows.
func (r windowRun) scored() confusion {
	var c confusion
	for i, w := range r.windows {
		if i < scoredWindows {
			c.add(w.conf)
		}
	}
	return c
}

// A windowed stream files its acks by chunks of ackChunk reports, the
// intervals ackPercentile and ackRatio work over. With a reference server,
// refBurst exchanges with it precede every refEvery-th report, so every
// whole chunk holds ackChunk/refEvery·refBurst of them.
const (
	ackChunk = 500
	refEvery = 50
	refBurst = 50
)

// costs is each warm window's latency in ms divided by the median of the
// reference-kernel samples taken just before and just after it. The host
// drifts within a run as well as between runs, and the kernel's speed
// jumps between two levels about 1.7× apart from one sample to the next,
// so each window is paired with the eight samples around it rather than
// the run's median divided by the run's median.
func (r windowRun) costs() []float64 {
	var out []float64
	for i := 1; i < len(r.windows); i++ {
		around := append(append([]float64(nil), r.windows[i-1].refMS...), r.windows[i].refMS...)
		if len(around) > 0 {
			out = append(out, float64(r.windows[i].latency)/float64(time.Millisecond)/median(around))
		}
	}
	return out
}

// windowLoopOptions bounds a closed-loop windowed stream. The loop stops
// after maxWindows windows (0 = no cap), or at the first window boundary
// past the deadline once minWindows are done, or when the stream ends.
type windowLoopOptions struct {
	fleet      string
	minWindows int
	maxWindows int
	deadline   time.Time
	waitLimit  time.Duration // per-window liveness backstop
	// pin, when not empty, holds the generator and these processes on
	// CPUs of their own while a window's reports are sent, and lets
	// detection have every CPU from the closing ack on.
	pin cpuSplit
	// refAddr, when set, is the reference server's address: before every
	// refEvery-th report, refBurst reports go to it, on the same CPUs.
	refAddr    string
	ref        *refKernel
	refSamples int // kernel samples after each window
	onAck      ackHook
}

// windowLoop drives one fleet as a stop-and-wait participant population:
// it sends the stream in slot order, and after the report that closes
// window k is acked it waits for window k's result, scores its flags
// against the ground truth, times the reference kernel, and continues.
// Kernel time is excluded from the load phase's wall time.
func windowLoop(tg target, s *stream, opt windowLoopOptions) (run windowRun, err error) {
	c, err := dial(tg.ingestAddr())
	if err != nil {
		return run, err
	}
	defer c.close()
	var rc *conn
	if opt.refAddr != "" {
		if rc, err = dial(opt.refAddr); err != nil {
			return run, err
		}
		defer rc.close()
	}
	truth := s.truth[opt.fleet]
	closers := s.closers()
	run.load.rtt = make([]int64, 0, len(s.lines))
	sent := 0
	var paused time.Duration
	began := time.Now()
	defer func() { run.load.wall = time.Since(began) - paused }()
	for k, closer := range closers {
		if opt.maxWindows > 0 && k >= opt.maxWindows {
			break
		}
		if k >= opt.minWindows && !opt.deadline.IsZero() && time.Now().After(opt.deadline) {
			break
		}
		if len(opt.pin) > 0 {
			if err := opt.pin.pin(); err != nil {
				return run, err
			}
		}
		var ackedAt time.Time
		for ; sent <= closer; sent++ {
			chunk := int32(sent / ackChunk)
			if rc != nil && sent%refEvery == 0 {
				r0 := time.Now()
				for i := 0; i < refBurst; i++ {
					if _, err := run.ref.exchange(rc, s.lines[(sent+i)%len(s.lines)], chunk); err != nil {
						if len(opt.pin) > 0 {
							_ = opt.pin.unpin()
						}
						return run, fmt.Errorf("reference exchange: %w", err)
					}
				}
				paused += time.Since(r0)
			}
			rtt, err := run.load.exchange(c, s.lines[sent], chunk)
			if err != nil {
				if len(opt.pin) > 0 {
					_ = opt.pin.unpin()
				}
				return run, fmt.Errorf("report %d: %w", sent, err)
			}
			ackedAt = time.Now()
			if opt.onAck != nil {
				opt.onAck(sent, rtt)
			}
		}
		if len(opt.pin) > 0 {
			if err := opt.pin.unpin(); err != nil {
				return run, err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), opt.waitLimit)
		res, err := tg.waitWindow(ctx, opt.fleet, k)
		visible := time.Now()
		cancel()
		if err != nil {
			return run, fmt.Errorf("window %d of %s: %w", k, opt.fleet, err)
		}
		conf, err := score(truth, res.StartSlot, res.EndSlot, res.Flags)
		if err != nil {
			return run, fmt.Errorf("window %d of %s: %w", k, opt.fleet, err)
		}
		w := windowSample{seq: k, latency: visible.Sub(ackedAt), sweeps: res.Sweeps, conf: conf}
		if opt.ref != nil {
			p0 := time.Now()
			// Collect the generator's own garbage first, so no GC cycle
			// competes with the kernel's threads.
			runtime.GC()
			w.refMS = opt.ref.samples(opt.refSamples)
			run.refMS = append(run.refMS, w.refMS...)
			paused += time.Since(p0)
		}
		run.windows = append(run.windows, w)
	}
	if len(run.windows) < opt.minWindows {
		return run, fmt.Errorf("%s: stream holds %d windows, want at least %d", opt.fleet, len(closers), opt.minWindows)
	}
	return run, nil
}
