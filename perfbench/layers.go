package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"itscs/internal/core"
	"itscs/internal/mat"
	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/wal"
)

// The traced run of each workload repeats the untraced run's phases
// against the in-process assembly, then crashes it and recovers its log,
// and ends with the same short set of single-layer measurements, so every
// per-layer metric is printed for every workload.

const (
	saltMicro = 5
	// microFleets sizes the stream of the single-layer measurements: four
	// first windows, about 23k reports, none closing a window.
	microFleets = 4
	// overheadFleets sizes each of the two floods whose rates give the
	// tracing overhead.
	overheadFleets = 4
	// microBatch is how many calls one timed batch of a single-layer
	// measurement holds; the metric is the median batch mean.
	microBatch = 1000
	// checkpointRuns is how many checkpoints the checkpoint time is the
	// median of.
	checkpointRuns = 3
	// engineTraceDepth is the per-fleet TraceTable depth pipeline.New
	// gives an engine whose Config.TraceDepth is zero.
	engineTraceDepth = 64
	// speedupRuns is how many single-round detections each parallelism
	// setting runs for core.parallel_speedup.
	speedupRuns = 2
)

// tracedOutcome is what a traced run's workload phase measured.
type tracedOutcome struct {
	outcome
	rv        recovery
	recovered bool // rv came from the workload itself (crash_replay)
}

func tracedQuickStream(cfg config, dir string, rep *report) error {
	s, err := windowedStream("quick", fleetSeed(cfg.seed, saltQuick, 0), quickHops)
	if err != nil {
		return err
	}
	rec := newRecorder()
	a, _, err := newAssembly(filepath.Join(dir, "data"), quickScale, rec)
	if err != nil {
		return err
	}
	defer a.abort()
	ref := newRefKernel()
	ref.samples(1) // warm the kernel's pages and caches
	run, err := windowLoop(a, s, windowLoopOptions{
		fleet:      "quick",
		minWindows: scoredWindows,
		deadline:   secondsDeadline(cfg),
		waitLimit:  windowWaitLimit,
		ref:        ref,
		refSamples: refSamplesPerWindow,
		onAck:      rec.acked(s),
	})
	if err != nil {
		return err
	}
	return tracedFinish(cfg, dir, rep, a, "quick", tracedOutcome{outcome: outcome{load: run.load, win: run, winIsLoad: true}})
}

func tracedCrashReplay(cfg config, dir string, rep *report) error {
	prep, resume, err := crashStreams(cfg.seed)
	if err != nil {
		return err
	}
	probe, err := windowedStream("probe", fleetSeed(cfg.seed, saltProbe, 0), quickHops)
	if err != nil {
		return err
	}
	data := filepath.Join(dir, "data")
	a0, _, err := newAssembly(data, quickScale, nil)
	if err != nil {
		return err
	}
	before := flood(a0.ingestAddr(), prep.lines, time.Time{}, nil)
	a0.abort()
	if before.failed() > 0 || before.acked != prep.len() {
		return fmt.Errorf("crash preparation: %d of %d reports acked, first error %q", before.acked, prep.len(), before.firstErr)
	}
	rec := newRecorder()
	a, rv, err := newAssembly(data, quickScale, rec)
	if err != nil {
		return err
	}
	defer a.abort()
	rep.check(rv.records == uint64(before.acked), "recovery replayed %d records, want the %d acked before the crash", rv.records, before.acked)
	load := flood(a.ingestAddr(), resume.lines, time.Time{}, rec.acked(resume))
	win, err := probeWindowsRun(a, probe, secondsDeadline(cfg))
	if err != nil {
		return err
	}
	return tracedFinish(cfg, dir, rep, a, "probe", tracedOutcome{outcome: outcome{load: load, win: win, before: before, replayed: rv.records}, rv: rv, recovered: true})
}

// tracedFinish applies the correctness gate to the assembly, crashes and
// recovers it unless the workload already did, runs the single-layer
// measurements and sets every per-layer metric.
func tracedFinish(cfg config, dir string, rep *report, a *assembly, scoredFleet string, o tracedOutcome) error {
	rec := a.rec
	st := a.engine.Stats()
	ws := a.log.Stats()
	gate(rep, o.outcome, engineCounts{
		Ingested:         st.Ingested,
		Replayed:         st.Replayed,
		ReportsStamped:   st.ReportsStamped,
		WindowsClosed:    st.WindowsClosed,
		WindowsProcessed: st.WindowsProcessed,
		WindowsDropped:   st.WindowsDropped,
		WindowsFailed:    st.WindowsFailed,
	})
	rep.check(rec.collisions == 0, "%d in-flight reports shared a trace frame", rec.collisions)

	rtt := durationsTo(o.load.rtt, time.Microsecond)
	rep.set("mcs.ack_p999_us", percentile(rtt, 99.9), "us")
	rep.set("mcs.self_us_p50", median(durationsTo(rec.mcsSelf, time.Microsecond)), "us")
	appendUS := durationsTo(rec.durations(spanAppend), time.Microsecond)
	rep.set("wal.append_us_p50", percentile(appendUS, 50), "us")
	rep.set("wal.append_us_p99", percentile(appendUS, 99), "us")
	rep.set("wal.records_per_batch", float64(ws.Records)/float64(ws.Batches), "records")
	rep.set("wal.bytes_per_record", float64(ws.Bytes)/float64(ws.Records), "B")
	self := durationsTo(rec.ingestSelf, time.Microsecond)
	rep.set("pipeline.ingest_self_us_p50", percentile(self, 50), "us")
	rep.set("pipeline.ingest_self_us_p99", percentile(self, 99), "us")
	rep.set("reputation.admit_ns_p50", median(durationsTo(rec.durations(spanAdmit), time.Nanosecond)), "ns")
	rep.set("reputation.fold_us_p50", median(durationsTo(rec.durations(spanFold), time.Microsecond)), "us")
	rep.set("pipeline.publish_lag_ms_p50", median(durationsTo(rec.publishLag, time.Millisecond)), "ms")
	rep.set("pipeline.windows_dropped", float64(rec.dropped), "count")
	rep.set("pipeline.windows_failed", float64(rec.failed), "count")
	setWindowLayers(rep, rec.windows, scoredFleet)
	// The in-process node's throughput, acks and window latency as
	// measured: the untraced run gates these as ratios to the references.
	var lat []float64
	for _, w := range o.win.windows {
		if w.seq > 0 {
			lat = append(lat, w.latency.Seconds())
		}
	}
	rep.set("node.reports_per_s", float64(o.load.acked)/o.load.wall.Seconds(), "1/s")
	rep.set("node.ack_p50_us", o.load.ackPercentile(50), "us")
	rep.set("node.ack_p90_us", o.load.ackPercentile(90), "us")
	rep.set("node.window_result_p50_s", median(lat), "s")
	rep.refMS = median(o.win.refMS)
	rep.set("host.ref_ms", rep.refMS, "ms")
	rep.note("ack samples %d, windows %d, wal records %d", len(rtt), len(rec.windows), ws.Records)

	ckMS, err := checkpointTimes(a, filepath.Join(dir, "checkpoints"))
	if err != nil {
		return err
	}
	rep.set("wal.checkpoint_ms", median(ckMS), "ms")
	if len(a.got) == 0 {
		return fmt.Errorf("no window result captured")
	}
	captured := a.got[0].Input
	speedup, err := parallelSpeedup(captured)
	if err != nil {
		return err
	}
	rep.set("core.parallel_speedup", speedup, "ratio")

	rv := o.rv
	if !o.recovered {
		// Crash the live node and recover its log, as crash_replay does.
		a.abort()
		b, brv, err := newAssembly(a.dir, quickScale, rec)
		if err != nil {
			return err
		}
		b.abort()
		rep.check(brv.records == ws.Records, "recovery replayed %d records, want %d", brv.records, ws.Records)
		rv = brv
	}
	rep.set("wal.replay_records_per_s", float64(rv.records)/rv.replay.Seconds(), "1/s")
	rep.set("pipeline.replay_us_p50", median(durationsTo(rec.durations(spanReplay), time.Microsecond)), "us")
	rep.note("recovered %d records: open %.3f s, replay %.3f s", rv.records, rv.openTime.Seconds(), rv.replay.Seconds())

	if err := microLayers(cfg, dir, rep); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "traces"), 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

// setWindowLayers derives the detection layers' metrics from the window
// spans. Times are medians over the warm windows, as the end-to-end window
// latency is; the counts cover the scored windows only, so they repeat
// exactly for a seed.
func setWindowLayers(rep *report, spans []obs.Span, scoredFleet string) {
	var run, det, cor, chk, wait []float64
	var iters, sweeps, perRecon, converged, scored float64
	for _, s := range spans {
		if s.Seq > 0 {
			run = append(run, s.RunMS)
			det = append(det, s.DetectMS)
			cor = append(cor, s.CorrectMS)
			chk = append(chk, s.CheckMS)
			wait = append(wait, s.QueueWaitMS)
		}
		if s.Fleet != scoredFleet || s.Seq >= scoredWindows {
			continue
		}
		scored++
		iters += float64(s.Iterations)
		sweeps += float64(s.Sweeps)
		// Each outer round reconstructs both axes once.
		perRecon += float64(s.Sweeps) / float64(2*s.Iterations)
		if s.Converged {
			converged++
		}
	}
	rep.set("core.run_ms_p50", median(run), "ms")
	rep.set("core.check_ms_p50", median(chk), "ms")
	rep.set("tsdetect.detect_ms_p50", median(det), "ms")
	rep.set("csrecon.correct_ms_p50", median(cor), "ms")
	rep.set("pipeline.queue_wait_ms_p50", median(wait), "ms")
	rep.set("core.iterations_per_window", iters/scored, "count")
	rep.set("csrecon.sweeps_per_window", sweeps/scored, "count")
	rep.set("csrecon.sweeps_per_reconstruction", perRecon/scored, "count")
	rep.set("core.converged_ratio", converged/scored, "ratio")
}

// checkpointTimes times the daemon's checkpoint step, Engine.Checkpoint
// plus the ledger blob plus WriteCheckpoint, into a directory of its own
// so the data dir's log is still replayed from the start.
func checkpointTimes(a *assembly, dir string) ([]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < checkpointRuns; i++ {
		began := time.Now()
		ck, err := a.engine.Checkpoint()
		if err != nil {
			return nil, err
		}
		if ck.Reputation, err = a.ledger.MarshalBinary(); err != nil {
			return nil, err
		}
		if _, err := wal.WriteCheckpoint(dir, ck); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(began))/float64(time.Millisecond))
	}
	return out, nil
}

// parallelSpeedup runs one DETECT→CORRECT→CHECK round of a captured window
// at one kernel worker and at the default, alternating, and returns the
// ratio of the median times.
func parallelSpeedup(in core.Input) (float64, error) {
	c := core.DefaultConfig()
	c.MaxIterations = 1
	var one, def []float64
	for i := 0; i < speedupRuns; i++ {
		for _, workers := range []int{1, 0} {
			prev := mat.SetParallelism(workers)
			began := time.Now()
			_, err := core.RunWarm(c, in, nil)
			took := float64(time.Since(began))
			mat.SetParallelism(prev)
			if err != nil {
				return 0, err
			}
			if workers == 1 {
				one = append(one, took)
			} else {
				def = append(def, took)
			}
		}
	}
	return median(one) / median(def), nil
}

// noopIngestor accepts every report and does nothing: the transport floor.
type noopIngestor struct{}

func (noopIngestor) Ingest(mcs.Report) error { return nil }

// microLayers measures single layers in isolation on a stream of its own:
// the transport over a no-op ingestor, the two codecs, stamped against
// unstamped engine ingest, TraceTable.Begin, and the tracing overhead.
func microLayers(cfg config, dir string, rep *report) error {
	ms, err := fleetsStream("micro", cfg.seed, saltMicro, microFleets, 0, windowSlots)
	if err != nil {
		return err
	}

	srv := mcs.NewServer(noopIngestor{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	floor := flood(addr.String(), ms.lines, time.Time{}, nil)
	_ = srv.Close()
	if err := <-served; err != nil {
		return err
	}
	rep.check(floor.failed() == 0, "no-op transport: %d failures", floor.failed())
	rep.set("mcs.noop_ack_p50_us", median(durationsTo(floor.rtt, time.Microsecond)), "us")

	rep.set("mcs.json_decode_ns", batchNS(len(ms.lines), func(i int) {
		var r mcs.Report
		_ = json.Unmarshal(ms.lines[i], &r)
	}), "ns")
	stamped := make([]mcs.Report, len(ms.reports))
	var frames [][]byte
	for i, r := range ms.reports {
		mcs.StampIngest(&r, time.Now(), mcs.OriginDirect)
		stamped[i] = r
		frames = append(frames, r.AppendBinary(nil))
	}
	rep.set("mcs.binary_decode_ns", batchNS(len(frames), func(i int) {
		_, _, _ = mcs.DecodeBinary(frames[i])
	}), "ns")

	for _, v := range []struct {
		name    string
		reports []mcs.Report
	}{{"pipeline.unstamped_ingest_ns", ms.reports}, {"pipeline.stamped_ingest_ns", stamped}} {
		ecfg := pipeline.DefaultConfig()
		ecfg.Participants, ecfg.WindowSlots, ecfg.HopSlots = participants, windowSlots, hopSlots
		e, err := pipeline.New(ecfg)
		if err != nil {
			return err
		}
		var failed int
		ns := batchNS(len(v.reports), func(i int) {
			if e.Ingest(v.reports[i]) != nil {
				failed++
			}
		})
		e.Abort()
		rep.check(failed == 0, "%s: %d reports refused", v.name, failed)
		rep.set(v.name, ns, "ns")
	}

	tt := obs.NewTraceTable(engineTraceDepth)
	rep.set("obs.trace_begin_ns", batchNS(len(stamped), func(i int) {
		r := stamped[i]
		tt.Begin(r.TraceID, r.Fleet, r.Participant, r.Slot, r.Origin.String(), r.IngestUnixMicro)
	}), "ns")

	ratio, err := tracingOverhead(cfg, dir)
	if err != nil {
		return err
	}
	rep.set("bench.tracing_overhead_ratio", ratio, "ratio")
	return nil
}

// batchNS times fn over 0..n-1 in batches of microBatch calls and returns
// the median batch's mean call time in ns.
func batchNS(n int, fn func(i int)) float64 {
	var means []float64
	for lo := 0; lo < n; lo += microBatch {
		hi := min(lo+microBatch, n)
		began := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		means = append(means, float64(time.Since(began))/float64(hi-lo))
	}
	return median(means)
}

// tracingOverhead floods the same stream into an untraced and a traced
// assembly, each on a fresh data dir, and returns traced ÷ untraced
// reports per second.
func tracingOverhead(cfg config, dir string) (float64, error) {
	ovs, err := fleetsStream("overhead", cfg.seed, saltMicro, overheadFleets, 0, windowSlots)
	if err != nil {
		return 0, err
	}
	var rates [2]float64
	for i, rec := range []*recorder{nil, newRecorder()} {
		a, _, err := newAssembly(filepath.Join(dir, fmt.Sprintf("overhead-%d", i)), quickScale, rec)
		if err != nil {
			return 0, err
		}
		var hook ackHook
		if rec != nil {
			hook = rec.acked(ovs)
		}
		t := flood(a.ingestAddr(), ovs.lines, time.Time{}, hook)
		a.abort()
		if t.failed() > 0 {
			return 0, fmt.Errorf("overhead flood: %d failures, first: %s", t.failed(), t.firstErr)
		}
		rates[i] = float64(t.acked) / t.wall.Seconds()
	}
	return rates[1] / rates[0], nil
}
