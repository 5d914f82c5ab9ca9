package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/segment"
	"github.com/stcps/stcps/internal/sub"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wal"
)

// target is one single-node composition under test: the public
// stcps.Engine (untraced runs), or the same composition rebuilt from
// the layer packages with spans around each call (traced runs).
type target interface {
	// ingest offers one entity, as the daemon's wire offer does.
	ingest(source string, ent event.Entity, conf float64, now timemodel.Tick) error
	// offer is the frame.ServerConfig.Offer of the wire server.
	offer(b *frame.Batch) error
	query(spec db.QuerySpec) (db.Result, error)
	subscribe(spec sub.Spec) (*sub.Subscription, error)
	close() error
}

// layout is the on-disk placement of one composition's WAL and spill
// directories under the run's temp directory.
type layout struct {
	root     string
	wal      string // "" = no WAL
	spill    string // "" = no cold tier
	fsync    string
	cell     float64
	maxInst  int
	subBuf   int
	detector []Detector
}

func newLayout(w *Workload, tmp string, rep int, dets []Detector) (layout, error) {
	root := filepath.Join(tmp, fmt.Sprintf("%s-%d-%d", w.Name, os.Getpid(), rep))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return layout{}, err
	}
	l := layout{
		root: root, fsync: w.Str("fsync", "none"), cell: w.Float("db_cell", 0),
		maxInst: w.Int("retention", 0), subBuf: subBuffer, detector: dets,
	}
	if l.fsync != "none" {
		l.wal = filepath.Join(root, "wal")
	}
	if w.Bool("spill") {
		l.spill = filepath.Join(root, "spill")
	}
	return l, nil
}

// engineTarget is the untraced composition: stcps.Engine, fed by the
// wire server under one offer guard per batch like cmd/stcpsd.
type engineTarget struct {
	eng *stcps.Engine
	mu  sync.Mutex
	dir string
}

func newEngineTarget(l layout) (*engineTarget, error) {
	cfg := stcps.EngineConfig{
		Observer:      observer,
		Loc:           engineLoc,
		WithStore:     true,
		DBCell:        l.cell,
		DBRetention:   stcps.Retention{MaxInstances: l.maxInst},
		Subscriptions: stcps.SubscriptionsConfig{Buffer: l.subBuf},
	}
	if l.wal != "" {
		cfg.Durability = stcps.DurabilityConfig{Dir: l.wal, Fsync: l.fsync}
	}
	if l.spill != "" {
		cfg.Spill = stcps.SpillConfig{Dir: l.spill}
	}
	eng, err := stcps.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range l.detector {
		if err := eng.Detect(d.Layer, d.eventSpec()); err != nil {
			return nil, err
		}
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	return &engineTarget{eng: eng, dir: l.root}, nil
}

func (t *engineTarget) ingest(source string, ent event.Entity, conf float64, now timemodel.Tick) error {
	_, err := t.eng.Ingest(source, ent, conf, now)
	return err
}

func (t *engineTarget) offer(b *frame.Batch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < b.Len(); i++ {
		if err := t.ingest(b.Source(i), b.Entity(i), b.Conf(i), b.Now(i)); err != nil {
			return err
		}
	}
	return nil
}

func (t *engineTarget) query(spec db.QuerySpec) (db.Result, error) { return t.eng.QueryST(spec) }

func (t *engineTarget) subscribe(s sub.Spec) (*sub.Subscription, error) {
	return t.eng.Subscribe(stcps.SubscriptionSpec{Event: s.Event, Region: s.Region, Where: s.Where, Buffer: s.Buffer})
}

func (t *engineTarget) close() error {
	_, err := t.eng.Shutdown(0)
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// tracedTarget rebuilds stcps.Engine's composition from the layer
// packages' public functions, the way stcps.NewEngine, Ingest and
// storeBatch wire them, so each layer call can be wrapped in a span:
// the WAL append runs ahead of engine.Bank.Ingest, and the bank's
// LogBatch hook appends each emission to the WAL, logs the round into
// the store, then publishes it to subscribers. Spans go to sb, which
// belongs to the wire server's goroutine.
type tracedTarget struct {
	log   *wal.Log
	store *db.Store
	cold  *segment.Dir
	subs  *sub.Matcher
	bank  *engine.Bank
	sb    *spanBuf
	pub   *pubClock
	mu    sync.Mutex
	dir   string
	// hookErr is the first WAL append error of the emission hook.
	hookErr error
}

func newTracedTarget(l layout, sb *spanBuf, pub *pubClock) (*tracedTarget, error) {
	t := &tracedTarget{sb: sb, pub: pub, dir: l.root}
	t.subs = sub.NewMatcher(sub.Config{Buffer: l.subBuf})
	store, err := db.New(l.cell)
	if err != nil {
		return nil, err
	}
	store.SetRetention(db.Retention{MaxInstances: l.maxInst})
	t.store = store
	if l.wal != "" {
		policy, err := wal.ParsePolicy(l.fsync)
		if err != nil {
			return nil, err
		}
		if t.log, err = wal.Open(wal.Options{Dir: l.wal, Fsync: policy}); err != nil {
			return nil, err
		}
	}
	if l.spill != "" {
		scfg := segment.Config{Dir: l.spill, CellSize: l.cell}
		if t.log != nil {
			scfg.Stamp = t.log.Seq
		}
		if t.cold, err = segment.Open(scfg); err != nil {
			return nil, err
		}
		if err := store.AttachCold(t.cold); err != nil {
			return nil, err
		}
	}
	t.bank, err = engine.NewBank(engine.Config{Observer: observer, Loc: engineLoc, LogBatch: t.logBatch})
	if err != nil {
		return nil, err
	}
	for _, d := range l.detector {
		spec, err := d.detectSpec()
		if err != nil {
			return nil, err
		}
		if _, err := t.bank.AddDetector(spec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// logBatch is the bank's LogBatch hook: WAL-append each emission, log
// the round into the store, publish the fresh instances.
func (t *tracedTarget) logBatch(ins []event.Instance) {
	if t.log != nil {
		for i := range ins {
			t.sb.begin(spWALEmit)
			_, err := t.log.Append(wal.Record{Kind: wal.KindEmit, Instance: &ins[i]})
			t.sb.end()
			if err != nil && t.hookErr == nil {
				// The hook cannot return it; close reports it, as
				// stcps.Engine's Shutdown does.
				t.hookErr = fmt.Errorf("traced composition: WAL append: %w", err)
			}
		}
	}
	t.sb.begin(spLogBatch)
	seqs, fresh, err := t.store.LogBatch(ins)
	t.sb.end()
	t.sb.begin(spPublish)
	defer t.sb.end()
	if err != nil {
		for i := range ins {
			if seq, ok, err := t.store.LogSeq(ins[i]); err == nil && ok {
				t.pub.mark(seq)
				t.subs.Publish(&ins[i], seq, true)
			}
		}
		return
	}
	for i := range ins {
		if fresh[i] {
			t.pub.mark(seqs[i])
			t.subs.Publish(&ins[i], seqs[i], true)
		}
	}
}

func (t *tracedTarget) ingest(source string, ent event.Entity, conf float64, now timemodel.Tick) error {
	if t.log != nil {
		rec := wal.Record{Source: source, Conf: conf, Now: now}
		switch v := ent.(type) {
		case event.Observation:
			rec.Kind = wal.KindObservation
			rec.Observation = &v
		case event.Instance:
			rec.Kind = wal.KindIngest
			rec.Instance = &v
		default:
			return fmt.Errorf("%T: %w", ent, stcps.ErrNotDurable)
		}
		t.sb.begin(spWALIngest)
		_, err := t.log.Append(rec)
		t.sb.end()
		if err != nil {
			return err
		}
	}
	t.sb.begin(spBank)
	t.bank.Ingest(source, ent, conf, now, engineLoc)
	t.sb.end()
	return nil
}

func (t *tracedTarget) offer(b *frame.Batch) error {
	t.sb.begin(spOffer)
	defer t.sb.end()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < b.Len(); i++ {
		if err := t.ingest(b.Source(i), b.Entity(i), b.Conf(i), b.Now(i)); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracedTarget) query(spec db.QuerySpec) (db.Result, error) { return t.store.QueryST(spec) }

func (t *tracedTarget) subscribe(s sub.Spec) (*sub.Subscription, error) { return t.subs.Subscribe(s) }

func (t *tracedTarget) close() error {
	err := t.hookErr
	if t.log != nil {
		if cerr := t.log.Close(); err == nil {
			err = cerr
		}
	}
	if t.cold != nil {
		if cerr := t.cold.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}
