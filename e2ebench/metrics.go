package main

import (
	"fmt"
	"sort"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/segment"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; every workload reports
// each. result_* time the workload's user-visible result (see BENCH.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rec_per_s", "rec/s"},
	{"offer_rec_per_s", "rec/s"},
	{"ack_p50_us", "us"},
	{"ack_p90_us", "us"},
	{"result_p50_us", "us"},
	{"result_p90_us", "us"},
	{"results_per_s", "1/s"},
	{"rss_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics. Layers a workload does not
// exercise report 0.
var perLayer = []metricDef{
	{"frame.outside_offer_ns_per_rec", "ns"},
	{"frame.recs_per_batch", "rec"},
	{"frame.bytes_per_rec", "B"},
	{"frame.slowdowns", "count"},
	{"wireclient.blocked_ns_per_rec", "ns"},
	{"wireclient.acked_frac", "fraction"},
	{"engine.offer_self_ns_per_rec", "ns"},
	{"engine.emitted_per_rec", "ratio"},
	{"engine.probed_per_rec", "ratio"},
	{"engine.emitted_per_probed", "ratio"},
	{"engine.pruned_per_probed", "ratio"},
	{"engine.eval_errors", "count"},
	{"engine.truncations", "count"},
	{"stcps.allocs_per_rec", "count"},
	{"stcps.gc_cpu_frac", "fraction"},
	{"wal.append_ns_per_rec", "ns"},
	{"wal.records_per_rec", "ratio"},
	{"wal.bytes_per_record", "B"},
	{"wal.bytes_per_input_byte", "ratio"},
	{"wal.syncs", "count"},
	{"wal.sync_failures", "count"},
	{"db.log_batch_ns_per_inst", "ns"},
	{"db.evicted_per_inst", "ratio"},
	{"db.stale_index_entries", "count"},
	{"db.query_ns_per_page", "ns"},
	{"db.scanned_per_returned", "ratio"},
	{"db.time_index_frac", "fraction"},
	{"db.region_index_frac", "fraction"},
	{"db.log_scan_frac", "fraction"},
	{"db.read_locks_per_page", "ratio"},
	{"segment.spills", "count"},
	{"segment.spilled_per_inst", "ratio"},
	{"segment.bytes_per_inst", "B"},
	{"segment.blocks_read_per_page", "ratio"},
	{"segment.blocks_pruned_frac", "fraction"},
	{"segment.cold_records_per_returned", "ratio"},
	{"segment.gc_segments", "count"},
	{"sub.publish_ns_per_inst", "ns"},
	{"sub.matched_per_published", "ratio"},
	{"sub.delivery_wait_p50_us", "us"},
	{"sub.delivery_wait_p99_us", "us"},
	{"sub.dropped", "count"},
	{"sub.cond_errors", "count"},
	{"cluster.offer_batch_ns_per_rec", "ns"},
	{"cluster.forwarded_frac", "fraction"},
	{"cluster.replicated_per_rec", "ratio"},
	{"cluster.repl_lag_p50_us", "us"},
	{"cluster.repl_lag_p99_us", "us"},
	{"cluster.duplicates", "count"},
	{"cluster.reroutes", "count"},
	{"cluster.dedup_pending", "count"},
	{"bench.ack_p99_us", "us"},
	{"bench.result_p99_us", "us"},
	{"bench.gen_late_p99_us", "us"},
	{"bench.backlog_end", "count"},
	{"bench.trace_overhead_frac", "fraction"},
	{"bench.span_coverage_frac", "fraction"},
	{"bench.error_rate", "fraction"},
}

// Validity limits. coverageTolerance is the share of the traced offer
// spans' time their named layer children may leave uncovered;
// maxBacklog is how many due records a paced run may leave unacked at
// the end of its window.
const (
	coverageTolerance = 0.05
	maxBacklog        = 100
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSingle runs a single-node workload: set-ups, the untraced phase,
// the oracle, and in traced runs a second, traced phase.
func runSingle(w *Workload, o options) (*outcome, error) {
	c, setup, reps, err := setupTimed(func(rep int) (closer, error) { return setupRig(w, o, rep, false) })
	if err != nil {
		return nil, err
	}
	r := c.(*rig)
	un, err := runPhase(r, o)
	if err != nil {
		r.close()
		return nil, err
	}
	out := &outcome{values: map[string]float64{"setup_s": setup}, samples: map[string]int{}}
	out.values["rss_peak_mb"] = rssPeakMB()

	// Oracle, outside the timed window.
	records := w.Int("preload", 0) + int(un.prod.sent)
	ref, err := buildRef(w, o.seed, records)
	if err != nil {
		r.close()
		return nil, err
	}
	bad, want, err := check(r, un, ref)
	if err != nil {
		r.close()
		return nil, err
	}
	out.mismatches = bad
	out.digest = fmt.Sprintf("%s all %s", prefixDigest(ref, records), want)

	var results *series
	switch w.Str("result", "") {
	case "delivery":
		results = un.detectLat
	case "page":
		results = un.pageLat
	case "detection":
		results = detectionLatencies(ref, un.acks, un.sched)
	default:
		return nil, fmt.Errorf("workload %s: result must be delivery, page or detection", w.Name)
	}
	acks := fillEndToEnd(out, un, results)

	// Attempted operations: window records, window pages, and every
	// delivery the reference says is due. Failed: unacked records,
	// errored pages, dropped deliveries.
	expected := 0
	for i := range r.decls {
		for j := range ref {
			if r.decls[i].filter.matchRef(&ref[j]) {
				expected++
			}
		}
	}
	dropped := un.c1.subs.Dropped - un.c0.subs.Dropped
	out.attempted = un.prod.inWindow + uint64(un.pagesWin) + uint64(expected)
	out.failed = un.prod.inWindow - uint64(len(acks.v)) + uint64(un.qErrors) + dropped

	if err := pacedValidity(w, un, out.values); err != nil {
		r.close()
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	if !o.trace {
		return out, nil
	}

	// Traced phase on a fresh composition built from the layer packages.
	tr, err := setupRig(w, o, reps, true)
	if err != nil {
		return nil, err
	}
	tt := tr.tgt.(*tracedTarget)
	emit0 := tt.bank.Stats().Emitted
	trRes, err := runPhase(tr, o)
	if err != nil {
		tr.close()
		return nil, err
	}
	trEmitted := tt.bank.Stats().Emitted - emit0
	tref, err := buildRef(w, o.seed, w.Int("preload", 0)+int(trRes.prod.sent))
	if err != nil {
		tr.close()
		return nil, err
	}
	tbad, _, err := check(tr, trRes, tref)
	if err != nil {
		tr.close()
		return nil, err
	}
	out.mismatches = append(out.mismatches, tbad...)
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.sb, trRes.qb); err != nil {
			tr.close()
			return nil, err
		}
	}
	if err := tr.close(); err != nil {
		return nil, err
	}
	if err := singleLayers(out.values, un, trRes, trEmitted, tr.sb, tr.lay.wal != ""); err != nil {
		return nil, err
	}
	out.values["bench.error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	return out, nil
}

// pacedValidity reports an open-loop phase's generator lateness and
// end-of-window backlog, and fails the run when the generator fell
// behind (late p99 above max_late_ms) or the backlog grew past
// maxBacklog: such a run is never reported as a latency. Like the
// latency tails, the late p99 is the median over the window's parts of
// each part's p99: a generator that cannot keep the pace is late in
// every part, while one stall of the host lands in one part.
func pacedValidity(w *Workload, ph *phaseResult, v map[string]float64) error {
	if !ph.sched.open {
		return nil
	}
	late := ph.prod.late.tail(99)
	v["bench.gen_late_p99_us"], v["bench.backlog_end"] = late, float64(ph.prod.backlog)
	fmt.Printf("validity gen_late_p99_us=%.0f backlog_end=%d\n", late, ph.prod.backlog)
	if late > w.Float("max_late_ms", 20)*1e3 || ph.prod.backlog > maxBacklog {
		return fmt.Errorf("%w: paced generator fell behind (late p99 %.0f µs) or backlog grew (%d due but unacked at the window end)",
			errInvalid, late, ph.prod.backlog)
	}
	return nil
}

// digestRecords is the fixed input prefix of the per-seed digest.
const digestRecords = 20000

// prefixDigest digests the reference emissions of the first
// digestRecords records. The oracle has checked every output against
// the reference, and the prefix does not depend on how many records a
// closed loop managed to send, so the digest repeats for a fixed seed.
func prefixDigest(ref []refInst, records int) string {
	d := newDigest()
	for i := range ref {
		if ref[i].rec < digestRecords {
			d.mix(ref[i].hash)
		}
	}
	return fmt.Sprintf("first %d records %s", min(records, digestRecords), d)
}

// detectionLatencies times each reference emission whose last input
// was sent inside the window: from that send (or due time) to the ack
// covering it, when the detection is stored (and, with a WAL, durable).
func detectionLatencies(ref []refInst, acks *ackBook, s schedule) *series {
	out := newSeries(s.from, s.to)
	for i := range ref {
		k := ref[i].last
		if k < 0 {
			k = ref[i].rec
		}
		if k < s.base {
			continue
		}
		if l, at, ok := acks.latOf(uint64(k - s.base)); ok {
			out.add(at, l)
		}
	}
	return out
}

// fillEndToEnd fills the latency and rate metrics every workload reports
// from an untraced phase and its result samples, and returns the ack
// samples.
func fillEndToEnd(out *outcome, ph *phaseResult, results *series) *series {
	v, acks := out.values, ph.acks.series()
	v["ingest_rec_per_s"] = acks.rate()
	v["offer_rec_per_s"] = ph.offers.rate(ph.sched.from, ph.sched.to)
	v["ack_p50_us"], v["ack_p90_us"] = acks.p50(), acks.tail(90)
	v["result_p50_us"], v["result_p90_us"] = results.p50(), results.tail(90)
	v["results_per_s"] = results.rate()
	// p99 is reported, ungated, with the traced run's layer metrics.
	v["bench.ack_p99_us"], v["bench.result_p99_us"] = acks.tail(99), results.tail(99)
	out.samples["ack"], out.samples["result"] = len(acks.v), len(results.v)
	return acks
}

// singleLayers derives the per-layer metrics of a single-node workload
// from the untraced phase's Stats deltas and the traced phase's spans.
func singleLayers(v map[string]float64, un, tr *phaseResult, trEmitted uint64, sb *spanBuf, durable bool) error {
	var lt [numSpanKinds]layerTime
	aggregate(sb, &lt)
	if tr.qb != nil {
		aggregate(tr.qb, &lt)
	}
	c0, c1 := un.c0, un.c1
	recs := float64(c1.eng.Ingested - c0.eng.Ingested)
	emitted := float64(c1.eng.Emitted - c0.eng.Emitted)
	probed := float64(c1.eng.BindingsProbed - c0.eng.BindingsProbed)
	trRecs := float64(tr.serve.Records)

	v["frame.outside_offer_ns_per_rec"] = ratio(float64(lt[spServe].total-lt[spOffer].total), trRecs)
	v["frame.recs_per_batch"] = ratio(float64(un.serve.Records), float64(un.serve.Batches))
	v["frame.bytes_per_rec"] = ratio(float64(un.serve.Bytes), float64(un.serve.Records))
	v["frame.slowdowns"] = float64(un.serve.SlowDowns)
	v["wireclient.blocked_ns_per_rec"] = ratio(float64(tr.prod.blocked), float64(tr.prod.sent))
	v["wireclient.acked_frac"] = ratio(float64(un.acks.ackedCount()), float64(un.prod.sent))

	v["engine.offer_self_ns_per_rec"] = ratio(float64(lt[spBank].own), trRecs)
	v["engine.emitted_per_rec"] = ratio(emitted, recs)
	v["engine.probed_per_rec"] = ratio(probed, recs)
	v["engine.emitted_per_probed"] = ratio(emitted, probed)
	v["engine.pruned_per_probed"] = ratio(float64(c1.eng.BindingsPruned-c0.eng.BindingsPruned), probed)
	v["engine.eval_errors"] = float64(c1.eng.EvalErrors - c0.eng.EvalErrors)
	v["engine.truncations"] = float64(c1.eng.Truncations - c0.eng.Truncations)
	v["stcps.allocs_per_rec"] = ratio(float64(c1.rt.allocs-c0.rt.allocs), recs)
	v["stcps.gc_cpu_frac"] = ratio(c1.rt.gcCPU-c0.rt.gcCPU, c1.rt.total-c0.rt.total)

	walRecs := float64(c1.dur.Appended - c0.dur.Appended)
	walBytes := float64(c1.dur.Bytes - c0.dur.Bytes)
	inBytes := recs * ratio(float64(un.serve.Bytes), float64(un.serve.Records))
	v["wal.append_ns_per_rec"] = ratio(float64(lt[spWALIngest].total+lt[spWALEmit].total), trRecs)
	v["wal.records_per_rec"] = ratio(walRecs, recs)
	v["wal.bytes_per_record"] = ratio(walBytes, walRecs)
	v["wal.bytes_per_input_byte"] = ratio(walBytes, inBytes)
	v["wal.syncs"] = float64(c1.dur.Syncs - c0.dur.Syncs)
	v["wal.sync_failures"] = float64(c1.dur.SyncFailures - c0.dur.SyncFailures)

	pages := float64(un.pagesWin)
	v["db.log_batch_ns_per_inst"] = ratio(float64(lt[spLogBatch].total), float64(trEmitted))
	v["db.evicted_per_inst"] = ratio(float64(c1.store.Evicted-c0.store.Evicted), emitted)
	v["db.stale_index_entries"] = float64(c1.store.StaleIndexEntries)
	v["db.query_ns_per_page"] = ratio(float64(lt[spQuery].total), float64(lt[spQuery].count))
	v["db.scanned_per_returned"] = ratio(float64(un.qScanned), float64(un.qReturned))
	v["db.time_index_frac"] = ratio(float64(un.qIndex["time"]), pages)
	v["db.region_index_frac"] = ratio(float64(un.qIndex["region"]), pages)
	v["db.log_scan_frac"] = ratio(float64(un.qIndex["log"]), pages)
	v["db.read_locks_per_page"] = ratio(float64(c1.store.ReadLocks-c0.store.ReadLocks), float64(c1.store.Reads-c0.store.Reads))

	cold0, cold1 := coldOf(c0.store), coldOf(c1.store)
	v["segment.spills"] = float64(cold1.Spills - cold0.Spills)
	v["segment.spilled_per_inst"] = ratio(float64(cold1.SpilledInstances-cold0.SpilledInstances), emitted)
	v["segment.bytes_per_inst"] = ratio(float64(cold1.Bytes), float64(cold1.Instances))
	v["segment.blocks_read_per_page"] = ratio(float64(un.qCold.BlocksRead), pages)
	v["segment.blocks_pruned_frac"] = ratio(float64(un.qCold.BlocksPruned), float64(un.qCold.BlocksRead+un.qCold.BlocksPruned))
	v["segment.cold_records_per_returned"] = ratio(float64(un.qCold.Records), float64(un.qReturned))
	v["segment.gc_segments"] = float64(cold1.GCSegments - cold0.GCSegments)

	published := float64(c1.subs.Published - c0.subs.Published)
	wait := sorted(tr.waitLat)
	v["sub.publish_ns_per_inst"] = ratio(float64(lt[spPublish].total), float64(trEmitted))
	v["sub.matched_per_published"] = ratio(float64(c1.subs.Matched-c0.subs.Matched), published)
	v["sub.delivery_wait_p50_us"], v["sub.delivery_wait_p99_us"] = pct(wait, 50), pct(wait, 99)
	v["sub.dropped"] = float64(c1.subs.Dropped - c0.subs.Dropped)
	v["sub.cond_errors"] = float64(c1.subs.CondErrors - c0.subs.CondErrors)

	traceOverhead(v, un, tr)

	// The layer spans must account for the traced work: the named
	// children of each offer span (WAL append, bank ingest) cover all but
	// coverageTolerance of it, and the server's, the bank's and the query
	// client's counts find a span for every record, emission and page.
	cov := 1 - ratio(float64(lt[spOffer].own), float64(lt[spOffer].total))
	v["bench.span_coverage_frac"] = cov
	if cov < 1-coverageTolerance {
		return fmt.Errorf("%w: layer spans cover %.3f of the stcps.offer spans (tolerance %.2f)", errInvalid, cov, coverageTolerance)
	}
	checks := []countCheck{
		{"stcps.offer spans", uint64(lt[spOffer].count), tr.serve.Batches},
		{"engine.ingest spans", uint64(lt[spBank].count), tr.serve.Records},
		{"db.query spans", uint64(lt[spQuery].count), uint64(len(tr.pages) + tr.qErrors)},
	}
	if durable {
		checks = append(checks,
			countCheck{"wal.append spans", uint64(lt[spWALIngest].count), tr.serve.Records},
			countCheck{"wal.append_emit spans", uint64(lt[spWALEmit].count), trEmitted})
	}
	return spanCounts(checks...)
}

// traceOverhead reports the traced phase's process CPU per record over
// the untraced phase's, minus 1.
func traceOverhead(v map[string]float64, un, tr *phaseResult) {
	unCPU := ratio(float64(un.cpu[1]-un.cpu[0]), float64(un.prod.inWindow))
	trCPU := ratio(float64(tr.cpuTraced), float64(tr.prod.sent))
	v["bench.trace_overhead_frac"] = ratio(trCPU, unCPU) - 1
}

// countCheck is one traced-run consistency check: a span or apply
// count against the count the layer's counters give.
type countCheck struct {
	what      string
	got, want uint64
}

// spanCounts fails the traced run on the first count that disagrees.
func spanCounts(checks ...countCheck) error {
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("%w: traced run has %d %s, want %d", errInvalid, c.got, c.what, c.want)
		}
	}
	return nil
}

// coldOf returns a store's cold-tier counters (zero when RAM-only).
func coldOf(s stcps.StoreStats) segment.Stats {
	if s.Cold == nil {
		return segment.Stats{}
	}
	return *s.Cold
}
