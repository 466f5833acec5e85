package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// The traced run assembles the daemon's layers in-process through their
// public constructors, because cmd/itscs-serve is package main and cannot
// be imported. The wiring follows the daemon's newDaemon: an identity and
// stamping door in front of the engine, the WAL as Config.Log, the trust
// ledger as Config.Gate and Config.OnResult, and an observer as
// Config.Obs. Each seam is wrapped by a recorder that times the call.

// shape is a stream's window geometry.
type shape struct{ participants, window, hop int }

var quickScale = shape{participants, windowSlots, hopSlots}

// assembly is one in-process node.
type assembly struct {
	dir    string
	log    *wal.Log
	ledger *reputation.Ledger
	engine *pipeline.Engine
	server *mcs.Server
	addr   string
	rec    *recorder // nil: untraced wiring

	results  chan *pipeline.WindowResult
	cancel   func()
	subDone  chan struct{}
	serveErr chan error
	got      []*pipeline.WindowResult // every result waitWindow consumed
	stopped  bool
}

// recovery is what reopening a crashed log measured.
type recovery struct {
	records  uint64
	openTime time.Duration // wal.Open: segment scan and torn-tail check
	replay   time.Duration // Replay of every record into the engine
}

// newAssembly opens the log in dir, builds the node and, when the log
// already holds records, recovers them first as the daemon does with no
// checkpoint present: reset the ledger, replay the whole log.
func newAssembly(dir string, sh shape, rec *recorder) (*assembly, recovery, error) {
	var rv recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rv, err
	}
	opt := wal.DefaultOptions()
	opt.Sync = wal.SyncInterval
	began := time.Now()
	log, err := wal.Open(dir, opt)
	if err != nil {
		return nil, rv, err
	}
	rv.openTime = time.Since(began)
	ledger, err := reputation.New(reputation.DefaultConfig())
	if err != nil {
		_ = log.Close()
		return nil, rv, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Participants, cfg.WindowSlots, cfg.HopSlots = sh.participants, sh.window, sh.hop
	cfg.MaxFleets = maxFleets
	cfg.Log, cfg.Gate, cfg.OnResult = log, ledger, ledger.Fold
	cfg.Obs = &obs.LogObserver{Log: obs.Discard()}
	if rec != nil {
		cfg.Log = &tracedLog{next: log, rec: rec}
		cfg.Gate = &tracedGate{next: ledger, rec: rec}
		cfg.OnResult = func(res *pipeline.WindowResult) { rec.fold(ledger, res) }
		cfg.Obs = rec
	}
	engine, err := pipeline.New(cfg)
	if err != nil {
		_ = log.Close()
		return nil, rv, err
	}
	a := &assembly{
		dir: dir, log: log, ledger: ledger, engine: engine, rec: rec,
		// Sized for every window a run can close, so the forwarder never
		// blocks the engine's subscription.
		results:  make(chan *pipeline.WindowResult, 1024),
		subDone:  make(chan struct{}),
		serveErr: make(chan error, 1),
	}
	sub, cancel := engine.Subscribe(64)
	a.cancel = cancel
	go a.forward(sub)

	if log.AppendedIndex() > 0 {
		if err := ledger.Restore(nil); err != nil {
			a.abort()
			return nil, rv, err
		}
		began := time.Now()
		n, err := log.Replay(0, func(_ uint64, r mcs.Report) error {
			if rec == nil {
				_ = engine.Replay(r)
				return nil
			}
			t0 := rec.now()
			_ = engine.Replay(r)
			rec.add(spanReplay, r.TraceID, t0, rec.now())
			return nil
		})
		rv.replay = time.Since(began)
		rv.records = n
		if err != nil {
			a.abort()
			return nil, rv, fmt.Errorf("replay log: %w", err)
		}
	}

	var door mcs.Ingestor = &stampDoor{next: engine}
	if rec != nil {
		door = &tracedDoor{next: engine, rec: rec}
	}
	a.server = mcs.NewServer(door)
	addr, err := a.server.Listen("127.0.0.1:0")
	if err != nil {
		a.abort()
		return nil, rv, err
	}
	a.addr = addr.String()
	go func() { a.serveErr <- a.server.Serve() }()
	return a, rv, nil
}

// forward moves published results to the generator's channel, timing the
// publish lag on the way.
func (a *assembly) forward(sub <-chan *pipeline.WindowResult) {
	defer close(a.subDone)
	defer close(a.results)
	for res := range sub {
		if a.rec != nil {
			a.rec.received(res)
		}
		a.results <- res
	}
}

func (a *assembly) ingestAddr() string { return a.addr }

func (a *assembly) waitWindow(ctx context.Context, fleet string, seq int) (*windowResult, error) {
	for {
		select {
		case res, ok := <-a.results:
			if !ok {
				return nil, errors.New("engine closed")
			}
			a.got = append(a.got, res)
			if res.Fleet != fleet || res.Seq < seq {
				continue
			}
			if res.Seq != seq {
				return nil, fmt.Errorf("newest window is %d, want %d", res.Seq, seq)
			}
			w := &windowResult{Seq: res.Seq, StartSlot: res.StartSlot, EndSlot: res.EndSlot, Sweeps: res.Sweeps}
			for _, f := range res.Flags {
				w.Flags = append(w.Flags, cellFlag{Participant: f.Participant, Slot: f.Slot})
			}
			return w, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("waiting for window %d: %w", seq, ctx.Err())
		}
	}
}

// abort stops the node the way SIGKILL stops the daemon: no open window is
// flushed and what the log has written is all that survives.
func (a *assembly) abort() { a.stop(false) }

// close stops the node gracefully: open partial windows run through
// detection and their results are delivered before the log closes.
func (a *assembly) close() { a.stop(true) }

func (a *assembly) stop(drain bool) {
	if a.stopped {
		return
	}
	a.stopped = true
	if a.server != nil {
		_ = a.server.Close()
		<-a.serveErr
	}
	if drain {
		a.engine.Close()
	} else {
		a.engine.Abort()
	}
	// The engine closes its subscriptions on shutdown; cancel is for the
	// paths that never got that far.
	a.cancel()
	for res := range a.results {
		a.got = append(a.got, res)
	}
	<-a.subDone
	_ = a.log.Close()
}

// stampDoor is the daemon's ingest door without tracing: refuse reports
// with no routable identity, stamp the rest, hand them to the engine.
type stampDoor struct{ next mcs.Ingestor }

func (d *stampDoor) Ingest(r mcs.Report) error {
	if err := r.CheckIdentity(); err != nil {
		return err
	}
	mcs.StampIngest(&r, time.Now(), mcs.OriginDirect)
	return d.next.Ingest(r)
}

// tracedDoor is stampDoor with its call, and the engine call inside it,
// timed. Children recorded while the engine call runs (WAL append, ledger
// admit) are attributed to it by the report's fleet and participant, which
// no two in-flight reports of one run share.
type tracedDoor struct {
	next mcs.Ingestor
	rec  *recorder
}

func (d *tracedDoor) Ingest(r mcs.Report) error {
	t0 := d.rec.now()
	if err := r.CheckIdentity(); err != nil {
		return err
	}
	mcs.StampIngest(&r, time.Now(), mcs.OriginDirect)
	fk := frameKey{r.Fleet, r.Participant}
	d.rec.open(fk)
	t1 := d.rec.now()
	err := d.next.Ingest(r)
	t2 := d.rec.now()
	d.rec.closeIngest(fk, r, t0, t1, t2)
	return err
}

// tracedLog wraps the WAL behind pipeline.Config.Log.
type tracedLog struct {
	next *wal.Log
	rec  *recorder
}

func (l *tracedLog) Append(r mcs.Report) error {
	t0 := l.rec.now()
	err := l.next.Append(r)
	l.rec.child(frameKey{r.Fleet, r.Participant}, spanAppend, r.TraceID, t0, l.rec.now())
	return err
}

func (l *tracedLog) Sync() error           { return l.next.Sync() }
func (l *tracedLog) AppendedIndex() uint64 { return l.next.AppendedIndex() }

// tracedGate wraps the ledger behind pipeline.Config.Gate.
type tracedGate struct {
	next *reputation.Ledger
	rec  *recorder
}

func (g *tracedGate) Admit(fleet string, participant int) pipeline.Admission {
	t0 := g.rec.now()
	v := g.next.Admit(fleet, participant)
	g.rec.child(frameKey{fleet, participant}, spanAdmit, 0, t0, g.rec.now())
	return v
}
