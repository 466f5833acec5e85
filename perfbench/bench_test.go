package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/sim"
)

func joined(s *stream) []byte { return bytes.Join(s.lines, nil) }

// The same seed must give byte-identical report streams, so a claim can be
// re-run exactly; another seed must give another stream that is just as
// usable, so a claim can be checked on a seed it was not tuned on.
func TestStreamsDeterministicPerSeed(t *testing.T) {
	build := map[string]func(seed int64) (*stream, error){
		"windowed": func(seed int64) (*stream, error) { return windowedStream("quick", fleetSeed(seed, saltQuick, 0), 2) },
		"fleets":   func(seed int64) (*stream, error) { return fleetsStream("crash", seed, saltCrash, 3, 0, windowSlots) },
		"crash-tail": func(seed int64) (*stream, error) {
			return fleetsStream("crash", seed, saltCrash, 2, crashPrepSlots, windowSlots)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			a, err := mk(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mk(7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(joined(a), joined(b)) {
				t.Fatal("seed 7 gave two different streams")
			}
			c, err := mk(8)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(joined(a), joined(c)) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			if a.len() == 0 || c.len() == 0 {
				t.Fatal("empty stream")
			}
		})
	}
}

// A windowed stream closes one window per hop, and fleet streams close
// none: the property the flood and recovery workloads rely on.
func TestStreamWindowShape(t *testing.T) {
	const hops = 3
	s, err := windowedStream("probe", fleetSeed(1, saltProbe, 0), hops)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.closers()
	if len(cl) != hops {
		t.Fatalf("probe stream closes %d windows, want %d", len(cl), hops)
	}
	for k, i := range cl {
		if got, want := s.reports[i].Slot, windowSlots+k*hopSlots; got != want {
			t.Errorf("window %d closed by slot %d, want %d", k, got, want)
		}
		if i > 0 && s.reports[i-1].Slot >= windowSlots+k*hopSlots {
			t.Errorf("window %d: report before the closer already past the edge", k)
		}
	}
	fs, err := fleetsStream("crash", 1, saltCrash, 3, 0, windowSlots)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fs.reports {
		if r.Slot >= windowSlots {
			t.Fatalf("flood report at slot %d would close a window", r.Slot)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2, 4}, 50, 2.5},
		{[]float64{5}, 99, 5},
		{[]float64{1, 2, 3}, 0, 1},
		{[]float64{1, 2, 3}, 100, 3},
		{hundred, 50, 50.5},
		{hundred, 99, 99.01},
		{hundred, 99.9, 99.901},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v…, %v) = %v, want %v", c.xs[0], c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", ms(0, 100), nil, 100 * time.Millisecond},
		{"disjoint", ms(0, 100), []interval{ms(10, 20), ms(40, 50)}, 80 * time.Millisecond},
		{"overlapping counted once", ms(0, 100), []interval{ms(10, 20), ms(15, 30)}, 80 * time.Millisecond},
		{"clipped to the parent", ms(0, 100), []interval{ms(-5, 5), ms(90, 120)}, 85 * time.Millisecond},
		{"fully covered", ms(0, 100), []interval{ms(0, 60), ms(50, 100)}, 0},
		{"outside", ms(0, 100), []interval{ms(100, 110)}, 100 * time.Millisecond},
		{"empty parent", ms(5, 5), []interval{ms(0, 10)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestScore(t *testing.T) {
	s, err := windowedStream("quick", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.truth["quick"]
	var all, half []cellFlag
	n, _ := truth.Faulty.Dims()
	for i := 0; i < n; i++ {
		for slot := 0; slot < windowSlots; slot++ {
			if truth.Faulty.At(i, slot) != 0 {
				all = append(all, cellFlag{i, slot})
				if len(all)%2 == 0 {
					half = append(half, cellFlag{i, slot})
				}
			}
		}
	}
	c, err := score(truth, 0, windowSlots, all)
	if err != nil {
		t.Fatal(err)
	}
	if c.precision() != 1 || c.recall() != 1 {
		t.Fatalf("perfect flags scored %+v", c)
	}
	c, err = score(truth, 0, windowSlots, half)
	if err != nil {
		t.Fatal(err)
	}
	if c.precision() != 1 || c.fn != len(all)-len(half) {
		t.Fatalf("half the faults scored %+v, want %d misses", c, len(all)-len(half))
	}
	if _, err := score(truth, 0, windowSlots, []cellFlag{{0, windowSlots}}); err == nil {
		t.Fatal("a flag outside the window was accepted")
	}
}

func TestPeekSeqAndVmHWM(t *testing.T) {
	if n, ok := peekSeq([]byte("{\n  \"fleet\": \"q\",\n  \"seq\": 12,\n")); !ok || n != 12 {
		t.Fatalf("peekSeq = %d, %v", n, ok)
	}
	if _, ok := peekSeq([]byte(`{"fleet":"q"}`)); ok {
		t.Fatal("peekSeq found a seq that is not there")
	}
	mb, err := vmHWM([]byte("Name:\titscs-serve\nVmHWM:\t   40960 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || mb != 40 {
		t.Fatalf("vmHWM = %v, %v", mb, err)
	}
}

// The ack ratio divides the load's percentile by the reference's in the
// same interval and medians over the intervals both have enough samples
// in; an interval only one side filled is left out.
func TestAckRatio(t *testing.T) {
	var load, ref tally
	add := func(tl *tally, slice int32, us float64, n int) {
		for i := 0; i < n; i++ {
			tl.rtt = append(tl.rtt, int64(us*float64(time.Microsecond)))
			tl.slice = append(tl.slice, slice)
		}
	}
	// Interval 0: 60 vs 30 µs, ratio 2; interval 1: 90 vs 30, ratio 3;
	// interval 2: 100 vs 20, ratio 5; interval 3 has no reference.
	add(&load, 0, 60, minSliceSamples)
	add(&ref, 0, 30, minSliceSamples)
	add(&load, 1, 90, minSliceSamples)
	add(&ref, 1, 30, minSliceSamples)
	add(&load, 2, 100, minSliceSamples)
	add(&ref, 2, 20, minSliceSamples)
	add(&load, 3, 1000, minSliceSamples)
	add(&ref, 3, 1, minSliceSamples-1)
	if got := load.ackRatio(ref, 50); math.Abs(got-3) > 1e-9 {
		t.Fatalf("ackRatio = %v, want 3, the median of 2, 3 and 5", got)
	}
}

// Each warm window's cost is its latency over the median of the kernel
// samples taken right before and right after it; the cold window 0 has
// none.
func TestWindowCosts(t *testing.T) {
	run := windowRun{windows: []windowSample{
		{seq: 0, latency: 9 * time.Second, refMS: []float64{100, 300}},
		{seq: 1, latency: 5 * time.Second, refMS: []float64{200, 400}},
		{seq: 2, latency: 6 * time.Second, refMS: []float64{100, 100}},
	}}
	got := run.costs()
	// Window 1: 5000 ms over the median of 100, 300, 200, 400 (250);
	// window 2: 6000 ms over the median of 200, 400, 100, 100 (150).
	want := []float64{20, 40}
	if len(got) != len(want) || math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
		t.Fatalf("costs = %v, want %v", got, want)
	}
}

// Pinning puts every thread of the process on one CPU and unpinning
// restores the mask the process started with.
func TestPinSplitRestoresAffinity(t *testing.T) {
	if !cpus.ok {
		t.Skip("fewer than two CPUs allowed: nothing is pinned")
	}
	pid := os.Getpid()
	if err := pinSplit(pid); err != nil {
		t.Fatal(err)
	}
	var m cpuMask
	if err := getAffinity(&m); err != nil {
		t.Fatal(err)
	}
	// The process is both generator and daemon here, so it ends on the
	// daemon's CPU.
	if m.count() != 1 || !m.has(cpus.daemon) {
		t.Errorf("pinned mask %x, want only CPU %d", m[0], cpus.daemon)
	}
	if err := unpinSplit(pid); err != nil {
		t.Fatal(err)
	}
	if err := getAffinity(&m); err != nil {
		t.Fatal(err)
	}
	if m != cpus.all {
		t.Errorf("unpinned mask %x, want %x", m[0], cpus.all[0])
	}
}

// The traced assembly must compute what the daemon computes: streamed
// window by window over its TCP door at the sim default shape, every
// window's outcome equals the deterministic golden run's.
func TestTracedAssemblyMatchesGolden(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		sc := sim.Scenario{Seed: seed}
		w, err := sim.BuildWorkload("sim", sc)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := sim.GoldenRun(w, sc)
		if err != nil {
			t.Fatal(err)
		}
		ecfg := sim.EngineConfig(sc)
		s := &stream{
			reports: w.Reports,
			truth:   map[string]*corrupt.Result{"sim": w.Truth},
			window:  ecfg.WindowSlots,
			hop:     ecfg.HopSlots,
		}
		if err := s.encode(); err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		a, _, err := newAssembly(filepath.Join(t.TempDir(), "data"), shape{ecfg.Participants, ecfg.WindowSlots, ecfg.HopSlots}, rec)
		if err != nil {
			t.Fatal(err)
		}
		closers := s.closers()
		run, err := windowLoop(a, s, windowLoopOptions{
			fleet:      "sim",
			minWindows: len(closers),
			waitLimit:  time.Minute,
			onAck:      rec.acked(s),
		})
		if err != nil {
			a.abort()
			t.Fatal(err)
		}
		// The rest of the stream fills the last, partial window; a graceful
		// stop flushes it through detection, as GoldenRun's Close does.
		rest := flood(a.ingestAddr(), s.lines[closers[len(closers)-1]+1:], time.Time{}, nil)
		a.close()
		if rest.failed() > 0 || run.load.failed() > 0 {
			t.Fatalf("seed %d: refused reports: %s %s", seed, run.load.firstErr, rest.firstErr)
		}
		got := map[int]sim.WindowOutcome{}
		for _, res := range a.got {
			o, err := sim.Outcome(res, w.Truth)
			if err != nil {
				t.Fatal(err)
			}
			got[o.Seq] = o
		}
		if v := sim.VerifyWindows(golden, got); len(v) > 0 {
			t.Fatalf("seed %d: traced assembly diverges from the golden run:\n%v", seed, v)
		}
		if len(rec.windows) != len(golden) || len(rec.dur[spanAppend]) != len(w.Reports) || len(rec.mcsSelf) != run.load.acked {
			t.Fatalf("seed %d: recorded %d windows (want %d), %d appends (want %d), %d round trips (want %d)",
				seed, len(rec.windows), len(golden), len(rec.dur[spanAppend]), len(w.Reports), len(rec.mcsSelf), run.load.acked)
		}
	}
}
