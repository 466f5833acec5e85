package main

import (
	"encoding/json"
	"fmt"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/sim"
)

// Every workload runs at the QuickScale shape (experiment.QuickScale): 60
// participants, 120-slot windows, hop 30. One daemon serves one shape, and
// every workload reports detection results, so the recovery workload
// uses it too: a paper-shaped (158×240) window costs
// about 70 s on the reference host, a QuickScale one about 5 s.
const (
	participants = 60
	windowSlots  = 120
	hopSlots     = 30
	// Corruption ratios α (missing) and β (faulty), as in the paper's
	// default evaluation point.
	missingRatio = 0.2
	faultyRatio  = 0.2

	// quickHops sizes the quick_stream fleet and crash_replay's probe
	// fleet: enough windows for a run of several minutes at today's speed,
	// or of the run length at ten times today's speed. A run stops early,
	// never runs out.
	quickHops = 64
	// crashFleets is the recovery workload's fleet count; crashPrepSlots of
	// each fleet's 120 first-window slots (about 69k records) are logged
	// before the kill and the rest (about 115k) are sent after recovery.
	crashFleets    = 32
	crashPrepSlots = 45
	// maxFleets is the daemon's fleet limit, with room for the probe fleet.
	maxFleets = crashFleets + 8
)

// stream is a sequence of reports in delivery order, pre-encoded as the
// JSON lines the mcs transport carries, with the ground truth of every
// fleet in it.
type stream struct {
	reports []mcs.Report
	lines   [][]byte
	truth   map[string]*corrupt.Result
	// window and hop are the stream's window shape in slots.
	window, hop int
}

func (s *stream) len() int { return len(s.reports) }

// scenario is the sim scenario behind one fleet of a workload.
func scenario(seed int64, slots int) sim.Scenario {
	return sim.Scenario{
		Seed:         seed,
		Participants: participants,
		WindowSlots:  windowSlots,
		HopSlots:     hopSlots,
		Slots:        slots,
		MissingRatio: missingRatio,
		FaultyRatio:  faultyRatio,
	}
}

// fleetSeed derives the seed of the i-th fleet of a workload from the run
// seed, so fleets differ from each other and from run to run. Salt keeps
// the workloads' fleets apart.
func fleetSeed(seed int64, salt, i int) int64 {
	return seed*1_000_003 + int64(salt)*10_007 + int64(i) + 1
}

// windowedStream is one fleet streamed in slot order over hops windows
// past its first: the quick_stream workload and the probe fleet.
func windowedStream(fleet string, seed int64, hops int) (*stream, error) {
	w, err := sim.BuildWorkload(fleet, scenario(seed, windowSlots+hops*hopSlots))
	if err != nil {
		return nil, err
	}
	s := &stream{reports: w.Reports, truth: map[string]*corrupt.Result{fleet: w.Truth}, window: windowSlots, hop: hopSlots}
	return s, s.encode()
}

// fleetsStream is n fleets' first windows restricted to slots [lo, hi),
// interleaved slot-major (slot, then fleet, then participant), so every
// fleet's shard is live from the first slot and none of their windows
// closes.
func fleetsStream(prefix string, seed int64, salt, n, lo, hi int) (*stream, error) {
	s := &stream{truth: map[string]*corrupt.Result{}, window: windowSlots, hop: hopSlots}
	perFleet := make([][]mcs.Report, n)
	for f := 0; f < n; f++ {
		name := fmt.Sprintf("%s-%03d", prefix, f)
		w, err := sim.BuildWorkload(name, scenario(fleetSeed(seed, salt, f), windowSlots))
		if err != nil {
			return nil, err
		}
		perFleet[f] = w.Reports
		s.truth[name] = w.Truth
	}
	next := make([]int, n)
	for slot := lo; slot < hi; slot++ {
		for f := 0; f < n; f++ {
			rs := perFleet[f]
			for next[f] < len(rs) && rs[next[f]].Slot <= slot {
				if rs[next[f]].Slot >= lo {
					s.reports = append(s.reports, rs[next[f]])
				}
				next[f]++
			}
		}
	}
	return s, s.encode()
}

// encode renders every report as the transport's JSON line, newline
// included, into one backing array.
func (s *stream) encode() error {
	s.lines = make([][]byte, len(s.reports))
	var buf []byte
	offs := make([]int, len(s.reports)+1)
	for i, r := range s.reports {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("encode report %d: %w", i, err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
		offs[i+1] = len(buf)
	}
	for i := range s.lines {
		s.lines[i] = buf[offs[i]:offs[i+1]:offs[i+1]]
	}
	return nil
}

// closers returns, for window k = 0, 1, …, the index of the report that
// closes it: the first report whose slot reaches the window's far edge.
func (s *stream) closers() []int {
	var out []int
	for i, r := range s.reports {
		edge := len(out)*s.hop + s.window
		if r.Slot >= edge {
			out = append(out, i)
		}
	}
	return out
}

// confusion tallies detection outcomes over observed cells.
type confusion struct{ tp, fp, fn int }

func (c *confusion) add(o confusion) { c.tp += o.tp; c.fp += o.fp; c.fn += o.fn }

func (c confusion) precision() float64 {
	if c.tp+c.fp == 0 {
		return 0
	}
	return float64(c.tp) / float64(c.tp+c.fp)
}

func (c confusion) recall() float64 {
	if c.tp+c.fn == 0 {
		return 0
	}
	return float64(c.tp) / float64(c.tp+c.fn)
}

// cellFlag is one cell a window judged faulty, on the absolute slot timeline.
type cellFlag struct {
	Participant int `json:"participant"`
	Slot        int `json:"slot"`
}

// score compares one window's flags with the ground truth over the
// window's observed cells.
func score(truth *corrupt.Result, start, end int, flags []cellFlag) (confusion, error) {
	n, slots := truth.Faulty.Dims()
	if start < 0 || end > slots || start >= end {
		return confusion{}, fmt.Errorf("window [%d,%d) outside ground truth of %d slots", start, end, slots)
	}
	flagged := make(map[cellFlag]bool, len(flags))
	var c confusion
	for _, f := range flags {
		if f.Participant < 0 || f.Participant >= n || f.Slot < start || f.Slot >= end {
			return confusion{}, fmt.Errorf("flag %+v outside window [%d,%d)", f, start, end)
		}
		if truth.Existence.At(f.Participant, f.Slot) == 0 {
			return confusion{}, fmt.Errorf("flag %+v on an unobserved cell", f)
		}
		flagged[f] = true
		if truth.Faulty.At(f.Participant, f.Slot) != 0 {
			c.tp++
		} else {
			c.fp++
		}
	}
	for i := 0; i < n; i++ {
		for t := start; t < end; t++ {
			if truth.Faulty.At(i, t) != 0 && truth.Existence.At(i, t) != 0 && !flagged[cellFlag{i, t}] {
				c.fn++
			}
		}
	}
	return c, nil
}
