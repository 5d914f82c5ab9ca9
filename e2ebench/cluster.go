package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/cluster"
	"github.com/stcps/stcps/internal/cluster/clustertest"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/frame"
)

// clusterRig is one set-up in-process cluster.
type clusterRig struct {
	w    *Workload
	h    *clustertest.Harness
	feed *Feed
	lags *lagBook // traced runs only
}

func (c *clusterRig) close() error {
	c.h.Close()
	return nil
}

// lagBook observes every engine apply on the nodes. Each record is
// applied once on its owner and once on each of its replicas; the gap
// from the first apply to each later one is a replication lag.
type lagBook struct {
	copies  int // applies per record: owner plus replicas
	mu      sync.Mutex
	first   map[string]applyState
	applies int
	lags    []float64
}

type applyState struct {
	t0 int64
	n  int
}

func newLagBook(replicas int) *lagBook {
	return &lagBook{copies: 1 + replicas, first: map[string]applyState{}}
}

func (l *lagBook) onApply(_ int, key string) {
	now := nanotime()
	l.mu.Lock()
	l.applies++
	st := l.first[key]
	if st.n++; st.n == 1 {
		st.t0 = now
	} else {
		l.lags = append(l.lags, float64(now-st.t0)/1e3)
	}
	if st.n == l.copies {
		delete(l.first, key)
	} else {
		l.first[key] = st
	}
	l.mu.Unlock()
}

// partitionCells finds one point per partition, as E17 does, so the
// feed's sensors each stay inside one partition's cell.
func partitionCells(r *cluster.Router, nodes int, cell float64) ([]point, error) {
	cells := make([]point, nodes)
	have, found := make([]bool, nodes), 0
	for k := 0; found < nodes && k < 1000; k++ {
		p := point{float64(k)*cell + 10, 10}
		if i := r.PartitionOf(stcps.AtPoint(p.x, p.y)); !have[i] {
			cells[i], have[i] = p, true
			found++
		}
	}
	if found != nodes {
		return nil, fmt.Errorf("found cells for %d of %d partitions", found, nodes)
	}
	return cells, nil
}

func setupCluster(w *Workload, o options, traced bool) (*clusterRig, error) {
	nodes := w.Int("nodes", 3)
	// Membership uses stcpsd's defaults (1 s probes, down after 3
	// misses), not the harness's test-scaled 20 ms probes, which a busy
	// two-vCPU host misses and turns into spurious failovers.
	cfg := clustertest.Config{
		Nodes: nodes, Replicas: w.Int("replicas", 1), Cell: w.Float("cell", 64), Observer: observer,
		ProbeInterval: time.Second, DownAfter: 3, ForwardTimeout: 30 * time.Second,
	}
	cr := &clusterRig{w: w}
	if traced {
		cr.lags = newLagBook(cfg.Replicas)
		cfg.OnApply = cr.lags.onApply
	}
	h, err := clustertest.New(cfg)
	if err != nil {
		return nil, err
	}
	cr.h = h
	cells, err := partitionCells(h.Router(0), nodes, cfg.Cell)
	if err == nil {
		cr.feed, err = newFeed(w, o.seed, cells)
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	for _, d := range cr.feed.Detectors() {
		if err := h.Detect(d.Layer, d.eventSpec()); err != nil {
			h.Close()
			return nil, err
		}
	}
	return cr, nil
}

// clusterCounters sums every node's public counters.
type clusterCounters struct {
	forwarded                        uint64 // by the ingress node
	replicated, duplicates, reroutes uint64
	dedupPending                     int
	eng                              stcps.EngineStats
	rt                               runtimeSample
}

func (c *clusterRig) counters() clusterCounters {
	var s clusterCounters
	for i, n := range c.h.Nodes {
		st := n.CL.Coord.Stats()
		if i == 0 {
			s.forwarded = st.Forwarded
		}
		s.replicated += st.Replicated
		s.duplicates += st.Duplicates
		s.reroutes += st.Reroutes
		s.dedupPending += st.DedupPending
		es := n.Eng.Stats()
		s.eng.Ingested += es.Ingested
		s.eng.Emitted += es.Emitted
		s.eng.BindingsProbed += es.BindingsProbed
		s.eng.BindingsPruned += es.BindingsPruned
		s.eng.EvalErrors += es.EvalErrors
		s.eng.Truncations += es.Truncations
	}
	s.rt = readRuntime()
	return s
}

// clusterPhase is one measured cluster phase.
type clusterPhase struct {
	phaseResult
	k0, k1 clusterCounters
	sb     *spanBuf
}

// runClusterPhase feeds the ingress node (node 0) from one producer.
// The producer dials a wire server of the benchmark's own in front of
// node 0's coordinator, configured as the node's listener is, so each
// OfferBatch can be timed (and, in traced phases, wrapped in a span).
func runClusterPhase(cr *clusterRig, o options, traced bool) (*clusterPhase, error) {
	res := &clusterPhase{phaseResult: phaseResult{acks: newAckBook()}}
	if traced {
		res.sb = &spanBuf{}
	}
	coord, sb := cr.h.Nodes[0].CL.Coord, res.sb
	srv, err := startServer(frame.ServerConfig{Materialize: true, Offer: res.offers.wrap(func(b *frame.Batch) error {
		sb.begin(spClusterOffer)
		defer sb.end()
		return coord.OfferBatch(b)
	})}, sb)
	if err != nil {
		return nil, err
	}
	addr := srv.ln.Addr().String()
	client, err := dialClient(addr, res.acks)
	if err != nil {
		srv.wait()
		return nil, err
	}
	w := cr.w
	s := schedule{open: w.Str("loop", "closed") == "open", warm: warmup, measure: time.Duration(o.seconds) * time.Second}
	if s.open {
		s.period = float64(time.Second) / w.Float("rate", 1000)
	}
	s.start = nanotime() + int64(20*time.Millisecond)
	s.from = s.start + int64(s.warm)
	s.to = s.from + int64(s.measure)
	res.sched = s

	edges := make(chan struct{})
	go func() {
		defer close(edges)
		time.Sleep(time.Duration(s.from - nanotime()))
		res.cpu[0], res.k0 = procCPU(), cr.counters()
		time.Sleep(time.Duration(s.to - nanotime()))
		res.cpu[1], res.k1 = procCPU(), cr.counters()
	}()
	cpu0 := procCPU()
	time.Sleep(time.Duration(s.start - nanotime()))
	var tick atomic.Int64
	if s.open {
		res.prod, err = openLoop(client, cr.feed, res.acks, &s, w.Int("flush_every_ms", 1), &tick, traced)
	} else {
		res.prod, err = closedLoop(client, cr.feed, res.acks, &s, &tick, traced)
	}
	<-edges
	cerr := client.Close()
	serr := srv.wait()
	res.serve = srv.stats
	res.cpuTraced = procCPU() - cpu0
	switch {
	case err != nil:
		return nil, err
	case cerr != nil:
		return nil, fmt.Errorf("client: %w", cerr)
	case serr != nil:
		return nil, fmt.Errorf("server: %w", serr)
	}
	return res, nil
}

// checkCluster feeds the harness's single-node oracle the same records
// and compares the scatter-gather merge with it byte for byte. It
// returns the oracle's emissions for the detection latencies.
func checkCluster(cr *clusterRig, o options, w *Workload, records int) ([]string, []refInst, digest, error) {
	ref, err := newFeed(w, o.seed, cr.feed.pos)
	if err != nil {
		return nil, nil, digest{}, err
	}
	var emitted []refInst
	var buf []byte
	want := newDigest()
	for i := 0; i < records; i++ {
		rec := ref.Next()
		out, err := cr.h.Oracle.Ingest(rec.Source(), rec.Entity(), rec.Conf(), rec.Now())
		if err != nil {
			return nil, nil, want, err
		}
		for j := range out {
			var h uint64
			buf, h = instHash(buf, &out[j])
			want.mix(h)
			last, ok := lastInput(&out[j])
			if !ok {
				last = -1
			}
			emitted = append(emitted, refInst{hash: h, rec: rec.Index, last: last})
		}
	}
	var bad []string
	oracle, _, err := storeDigest(cr.h.Oracle.QueryST)
	if err != nil {
		return nil, nil, want, err
	}
	if !oracle.equal(want) {
		bad = append(bad, fmt.Sprintf("oracle store holds %s, oracle emitted %s", oracle, want))
	}
	got := newDigest()
	spec := db.QuerySpec{Limit: 4096}
	for {
		page, err := cr.h.Gather(0, spec)
		if err != nil {
			return nil, nil, want, fmt.Errorf("gather: %w", err)
		}
		for i := range page.Instances {
			got.add(&page.Instances[i])
		}
		if page.NextCursor == "" {
			break
		}
		spec.Cursor = page.NextCursor
	}
	if !got.equal(want) {
		bad = append(bad, fmt.Sprintf("cluster gather returned %s, single-node oracle %s", got, want))
	}
	return bad, emitted, want, nil
}

// runCluster runs the cluster workload: set-ups, the untraced phase,
// the gather-vs-oracle check, and in traced runs a traced phase.
func runCluster(w *Workload, o options) (*outcome, error) {
	c, setup, _, err := setupTimed(func(int) (closer, error) { return setupCluster(w, o, false) })
	if err != nil {
		return nil, err
	}
	cr := c.(*clusterRig)
	un, err := runClusterPhase(cr, o, false)
	if err != nil {
		cr.close()
		return nil, err
	}
	out := &outcome{values: map[string]float64{"setup_s": setup}, samples: map[string]int{}}
	out.values["rss_peak_mb"] = rssPeakMB()
	bad, emitted, want, err := checkCluster(cr, o, w, int(un.prod.sent))
	cr.close()
	if err != nil {
		return nil, err
	}
	out.mismatches = bad
	out.digest = fmt.Sprintf("%s all %s", prefixDigest(emitted, int(un.prod.sent)), want)

	acks := fillEndToEnd(out, &un.phaseResult, detectionLatencies(emitted, un.acks, un.sched))
	out.attempted = un.prod.inWindow
	out.failed = un.prod.inWindow - uint64(len(acks.v))
	if err := pacedValidity(w, &un.phaseResult, out.values); err != nil {
		return nil, err
	}
	if !o.trace {
		return out, nil
	}

	tcr, err := setupCluster(w, o, true)
	if err != nil {
		return nil, err
	}
	tr, err := runClusterPhase(tcr, o, true)
	if err != nil {
		tcr.close()
		return nil, err
	}
	tbad, _, _, err := checkCluster(tcr, o, w, int(tr.prod.sent))
	tcr.close()
	if err != nil {
		return nil, err
	}
	out.mismatches = append(out.mismatches, tbad...)
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.sb); err != nil {
			return nil, err
		}
	}
	var lt [numSpanKinds]layerTime
	aggregate(tr.sb, &lt)
	v := out.values
	k0, k1 := un.k0, un.k1
	recs := float64(un.prod.inWindow)
	trRecs := float64(tr.serve.Records)
	emittedN := float64(k1.eng.Emitted - k0.eng.Emitted)
	probed := float64(k1.eng.BindingsProbed - k0.eng.BindingsProbed)
	ingested := float64(k1.eng.Ingested - k0.eng.Ingested)

	v["frame.outside_offer_ns_per_rec"] = ratio(float64(lt[spServe].total-lt[spClusterOffer].total), trRecs)
	v["frame.recs_per_batch"] = ratio(trRecs, float64(tr.serve.Batches))
	v["frame.bytes_per_rec"] = ratio(float64(tr.serve.Bytes), trRecs)
	v["frame.slowdowns"] = float64(tr.serve.SlowDowns)
	v["wireclient.blocked_ns_per_rec"] = ratio(float64(tr.prod.blocked), float64(tr.prod.sent))
	v["wireclient.acked_frac"] = ratio(float64(un.acks.ackedCount()), float64(un.prod.sent))
	v["engine.emitted_per_rec"] = ratio(emittedN, ingested)
	v["engine.probed_per_rec"] = ratio(probed, ingested)
	v["engine.emitted_per_probed"] = ratio(emittedN, probed)
	v["engine.pruned_per_probed"] = ratio(float64(k1.eng.BindingsPruned-k0.eng.BindingsPruned), probed)
	v["engine.eval_errors"] = float64(k1.eng.EvalErrors - k0.eng.EvalErrors)
	v["engine.truncations"] = float64(k1.eng.Truncations - k0.eng.Truncations)
	v["stcps.allocs_per_rec"] = ratio(float64(k1.rt.allocs-k0.rt.allocs), recs)
	v["stcps.gc_cpu_frac"] = ratio(k1.rt.gcCPU-k0.rt.gcCPU, k1.rt.total-k0.rt.total)

	tcr.lags.mu.Lock()
	lags := sorted(tcr.lags.lags)
	applies, pending := tcr.lags.applies, len(tcr.lags.first)
	tcr.lags.mu.Unlock()
	v["cluster.offer_batch_ns_per_rec"] = ratio(float64(lt[spClusterOffer].total), trRecs)
	v["cluster.forwarded_frac"] = ratio(float64(k1.forwarded-k0.forwarded), recs)
	v["cluster.replicated_per_rec"] = ratio(float64(k1.replicated-k0.replicated), recs)
	v["cluster.repl_lag_p50_us"], v["cluster.repl_lag_p99_us"] = pct(lags, 50), pct(lags, 99)
	v["cluster.duplicates"] = float64(k1.duplicates - k0.duplicates)
	v["cluster.reroutes"] = float64(k1.reroutes - k0.reroutes)
	v["cluster.dedup_pending"] = float64(k1.dedupPending)
	v["bench.error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	out.samples["repl_lag"] = len(lags)
	traceOverhead(v, &un.phaseResult, &tr.phaseResult)

	// The coordinator has no public seam below OfferBatch, so the
	// traced run is checked by counts: one offer_batch span per served
	// batch, and every served record applied on its owner and each
	// replica exactly once.
	copies := uint64(tcr.lags.copies)
	return out, spanCounts(
		countCheck{"cluster.offer_batch spans", uint64(lt[spClusterOffer].count), tr.serve.Batches},
		countCheck{"node applies", uint64(applies), copies * tr.serve.Records},
		countCheck{"records applied fewer than owner+replica times", uint64(pending), 0},
	)
}
