package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
)

// spanKind names a timed call into one layer.
type spanKind int

const (
	spanDoor         spanKind = iota // the mcs server's Ingestor call: identity, stamp, engine
	spanEngineIngest                 // pipeline.Engine.Ingest
	spanAppend                       // wal.Log.Append, inside Engine.Ingest
	spanAdmit                        // reputation.Ledger.Admit, inside Engine.Ingest
	spanFold                         // reputation.Ledger.Fold, the OnResult hook
	spanReplay                       // pipeline.Engine.Replay during recovery
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"mcs.ingest", "pipeline.ingest", "wal.append", "reputation.admit", "reputation.fold", "pipeline.replay",
}

// keepEvery is the sampling stride of the per-report spans written to the
// trace file; durations of every call feed the metrics regardless.
const keepEvery = 64

// spanRec is one recorded span. Spans of one report share its trace ID;
// Parent names the enclosing span, empty for a root.
type spanRec struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

type frameKey struct {
	fleet       string
	participant int
}

type reportKey struct {
	fleet             string
	participant, slot int
}

type windowKey struct {
	fleet string
	seq   int
}

// frame collects the child spans of one in-flight engine ingest.
type frame struct {
	children []interval
	kept     []spanRec
}

// recorder keeps a traced run's spans in memory, keyed to the layer seam
// they time, and writes a sample of them when the run ends. It is also the
// run's pipeline observer.
type recorder struct {
	epoch time.Time

	mu         sync.Mutex
	dur        [numSpanKinds][]int64 // ns per call
	ingestSelf []int64               // engine ingest minus WAL append and admit
	frames     map[frameKey]*frame
	door       map[reportKey]int64 // ns inside the door, until the ack hook takes it
	mcsSelf    []int64             // round trip minus time inside the door
	collisions int                 // in-flight reports that shared a frame key
	kept       []spanRec
	windows    []obs.Span
	dropped    int
	failed     int
	foldedAt   map[windowKey]time.Time
	publishLag []int64
}

func newRecorder() *recorder {
	return &recorder{
		epoch:    time.Now(),
		frames:   map[frameKey]*frame{},
		door:     map[reportKey]int64{},
		foldedAt: map[windowKey]time.Time{},
	}
}

func (rc *recorder) now() time.Duration { return time.Since(rc.epoch) }

// add records a span with no parent.
func (rc *recorder) add(k spanKind, id uint64, start, end time.Duration) {
	rc.mu.Lock()
	rc.dur[k] = append(rc.dur[k], int64(end-start))
	if id%keepEvery == 0 {
		rc.kept = append(rc.kept, spanRec{Name: spanNames[k], ID: id, Start: int64(start), End: int64(end)})
	}
	rc.mu.Unlock()
}

// open starts collecting children for the report in flight under fk.
func (rc *recorder) open(fk frameKey) {
	rc.mu.Lock()
	if _, busy := rc.frames[fk]; busy {
		rc.collisions++
	}
	rc.frames[fk] = &frame{}
	rc.mu.Unlock()
}

// child records a span inside the engine ingest in flight under fk.
func (rc *recorder) child(fk frameKey, k spanKind, id uint64, start, end time.Duration) {
	rc.mu.Lock()
	rc.dur[k] = append(rc.dur[k], int64(end-start))
	if fr := rc.frames[fk]; fr != nil {
		fr.children = append(fr.children, interval{start, end})
		fr.kept = append(fr.kept, spanRec{Name: spanNames[k], ID: id, Parent: spanNames[spanEngineIngest], Start: int64(start), End: int64(end)})
	}
	rc.mu.Unlock()
}

// closeIngest ends a door span [t0,t2) whose engine call ran over [t1,t2).
func (rc *recorder) closeIngest(fk frameKey, r mcs.Report, t0, t1, t2 time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	fr := rc.frames[fk]
	delete(rc.frames, fk)
	var children []interval
	if fr != nil {
		children = fr.children
	}
	rc.dur[spanDoor] = append(rc.dur[spanDoor], int64(t2-t0))
	rc.dur[spanEngineIngest] = append(rc.dur[spanEngineIngest], int64(t2-t1))
	rc.ingestSelf = append(rc.ingestSelf, int64(selfTime(interval{t1, t2}, children)))
	rc.door[reportKey{r.Fleet, r.Participant, r.Slot}] = int64(t2 - t0)
	if id := r.TraceID; id%keepEvery == 0 {
		rc.kept = append(rc.kept,
			spanRec{Name: spanNames[spanDoor], ID: id, Start: int64(t0), End: int64(t2)},
			spanRec{Name: spanNames[spanEngineIngest], ID: id, Parent: spanNames[spanDoor], Start: int64(t1), End: int64(t2)})
		if fr != nil {
			for _, c := range fr.kept {
				c.ID = id
				rc.kept = append(rc.kept, c)
			}
		}
	}
}

// acked is the generator's ack hook: the report's round trip minus the
// time its door call took is the transport's self time.
func (rc *recorder) acked(s *stream) ackHook {
	return func(i int, rtt time.Duration) {
		r := s.reports[i]
		k := reportKey{r.Fleet, r.Participant, r.Slot}
		rc.mu.Lock()
		if ns, ok := rc.door[k]; ok {
			delete(rc.door, k)
			rc.mcsSelf = append(rc.mcsSelf, int64(rtt)-ns)
		}
		rc.mu.Unlock()
	}
}

// fold is the OnResult hook: the ledger fold, timed.
func (rc *recorder) fold(l *reputation.Ledger, res *pipeline.WindowResult) {
	t0 := rc.now()
	l.Fold(res)
	t1 := rc.now()
	rc.add(spanFold, uint64(res.Seq), t0, t1)
	rc.mu.Lock()
	rc.foldedAt[windowKey{res.Fleet, res.Seq}] = time.Now()
	rc.mu.Unlock()
}

// received times the publish lag: OnResult returned → subscriber has it.
func (rc *recorder) received(res *pipeline.WindowResult) {
	now := time.Now()
	rc.mu.Lock()
	if at, ok := rc.foldedAt[windowKey{res.Fleet, res.Seq}]; ok {
		rc.publishLag = append(rc.publishLag, int64(now.Sub(at)))
	}
	rc.mu.Unlock()
}

// WindowProcessed, WindowDropped and WindowFailed make the recorder the
// engine's obs.Observer: the window spans carry the DETECT, CORRECT and
// CHECK split, the sweeps and the queue wait.
func (rc *recorder) WindowProcessed(s obs.Span) {
	rc.mu.Lock()
	rc.windows = append(rc.windows, s)
	rc.mu.Unlock()
}

func (rc *recorder) WindowDropped(string, int, int) {
	rc.mu.Lock()
	rc.dropped++
	rc.mu.Unlock()
}

func (rc *recorder) WindowFailed(string, int, error) {
	rc.mu.Lock()
	rc.failed++
	rc.mu.Unlock()
}

// durations returns a copy of one kind's samples.
func (rc *recorder) durations(k spanKind) []int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]int64(nil), rc.dur[k]...)
}

// write stores the window spans and the sampled report spans as JSON
// lines.
func (rc *recorder) write(path string) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rc.windows {
		if err := enc.Encode(map[string]any{"window": s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range rc.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
