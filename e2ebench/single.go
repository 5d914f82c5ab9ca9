package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/sub"
)

// subDecl is one declared subscription: the spec handed to the system
// and the independent filter its deliveries are checked against.
type subDecl struct {
	spec   sub.Spec
	filter subFilter
}

// parseSubs reads "event | region | where" subscription declarations;
// "-" leaves a field unset. Where is "e.<attr> <op> <number>".
func parseSubs(w *Workload, buf int) ([]subDecl, error) {
	var out []subDecl
	for _, line := range w.Prefixed("subscription.") {
		parts := strings.Split(line, "|")
		if len(parts) != 3 {
			return nil, fmt.Errorf("subscription %q: want event | region | where", line)
		}
		var d subDecl
		d.spec.Buffer = buf
		if ev := strings.TrimSpace(parts[0]); ev != "-" {
			d.spec.Event, d.filter.event = ev, ev
		}
		if rg := strings.TrimSpace(parts[1]); rg != "-" {
			var c [4]float64
			for i, f := range strings.Split(rg, ",") {
				if i > 3 {
					return nil, fmt.Errorf("subscription region %q: want x0,y0,x1,y1", rg)
				}
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return nil, fmt.Errorf("subscription region %q: %w", rg, err)
				}
				c[i] = v
			}
			field, err := spatial.Rect(c[0], c[1], c[2], c[3])
			if err != nil {
				return nil, err
			}
			loc := spatial.InField(field)
			d.spec.Region, d.filter.region = &loc, &loc
		}
		if wh := strings.TrimSpace(parts[2]); wh != "-" {
			f := strings.Fields(wh)
			if len(f) != 3 || !strings.HasPrefix(f[0], "e.") {
				return nil, fmt.Errorf("subscription where %q: want e.<attr> <op> <number>", wh)
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("subscription where %q: %w", wh, err)
			}
			d.spec.Where = wh
			d.filter.attr, d.filter.op, d.filter.value = strings.TrimPrefix(f[0], "e."), f[1], v
		}
		out = append(out, d)
	}
	return out, nil
}

// rig is one set-up single-node composition, ready for a measured
// phase.
type rig struct {
	w     *Workload
	lay   layout
	tgt   target
	eng   *engineTarget // nil when traced
	feed  *Feed
	subs  []*sub.Subscription
	decls []subDecl
	sb    *spanBuf // server goroutine spans (traced)
	pub   *pubClock
}

// setupRig builds the composition, registers subscriptions and
// preloads history. It is what setup_s times.
func setupRig(w *Workload, o options, rep int, traced bool) (*rig, error) {
	feed, err := newFeed(w, o.seed, nil)
	if err != nil {
		return nil, err
	}
	lay, err := newLayout(w, o.tmp, rep, feed.Detectors())
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, lay: lay, feed: feed}
	if traced {
		r.sb, r.pub = &spanBuf{}, newPubClock()
		r.tgt, err = newTracedTarget(lay, r.sb, r.pub)
	} else {
		r.eng, err = newEngineTarget(lay)
		r.tgt = r.eng
	}
	if err != nil {
		return nil, err
	}
	if r.decls, err = parseSubs(w, lay.subBuf); err != nil {
		r.tgt.close()
		return nil, err
	}
	for _, d := range r.decls {
		s, err := r.tgt.subscribe(d.spec)
		if err != nil {
			r.tgt.close()
			return nil, err
		}
		r.subs = append(r.subs, s)
	}
	for i, n := 0, w.Int("preload", 0); i < n; i++ {
		rec := feed.Next()
		if err := r.tgt.ingest(rec.Source(), rec.Entity(), rec.Conf(), rec.Now()); err != nil {
			r.tgt.close()
			return nil, fmt.Errorf("preload %d: %w", i, err)
		}
	}
	if r.sb != nil {
		r.sb.reset()
	}
	return r, nil
}

// Set-up repetitions: at least minSetups, then more until setupBudget
// of set-up time has accumulated, so a set-up of a millisecond is
// repeated often enough for a steady median; never more than maxSetups.
const (
	minSetups   = 3
	maxSetups   = 101
	setupBudget = time.Second
)

// setupTimed sets up repeatedly, keeps the last set-up and returns it
// with the median set-up time in seconds and the number of set-ups.
func setupTimed(build func(rep int) (closer, error)) (closer, float64, int, error) {
	var times []float64
	var spent time.Duration
	for rep := 0; ; rep++ {
		t0 := time.Now()
		c, err := build(rep)
		if err != nil {
			return nil, 0, 0, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		if rep+1 >= maxSetups || rep+1 >= minSetups && spent >= setupBudget {
			fmt.Printf("setup reps=%d median_s=%.6f\n", rep+1, median(times))
			return c, median(times), rep + 1, nil
		}
		if err := c.close(); err != nil {
			return nil, 0, 0, err
		}
	}
}

// closer is anything setupTimed can discard.
type closer interface{ close() error }

func (r *rig) close() error {
	for _, s := range r.subs {
		s.Close()
	}
	return r.tgt.close()
}

// schedule is a phase's producer timing: records from index base on
// are due at start + (index-base)*period (open loop); the measurement
// window is [from, to).
type schedule struct {
	base          int
	start, from   int64
	to            int64
	period        float64
	open          bool
	warm, measure time.Duration
}

func (s *schedule) due(idx int) int64 { return s.start + int64(float64(idx-s.base)*s.period) }

// pageRec is one query page as served, kept for the oracle.
type pageRec struct {
	q        int // index into the phase's queries
	after    uint64
	hasAfter bool
	frontier uint64
	n        int
	first    uint64
	last     uint64
	sum      uint64
}

// qdecl is one generated query.
type qdecl struct {
	tile  int
	event string
	win   *db.TimeWindow
}

// phaseResult is what one measured phase yields.
type phaseResult struct {
	prod   produced
	sched  schedule
	acks   *ackBook
	serve  frame.ServeStats
	offers offerBook

	// counters at the window edges (untraced engine only)
	c0, c1 counters

	// subscribers
	subDigests []digest
	detectLat  *series   // deliveries whose last input was due in the window
	waitLat    []float64 // µs, publish to delivery (traced)

	// query client
	queries   []qdecl
	pages     []pageRec
	pageLat   *series // pages started in the window
	pagesWin  int
	qErrors   int
	qReturned int
	qScanned  int
	qIndex    map[string]int
	qCold     db.ColdScan
	qb        *spanBuf
	cpu       [2]int64 // process CPU at window edges
	cpuTraced int64    // process CPU over the whole traced connection
}

// counters snapshots the public Stats of every layer.
type counters struct {
	eng   stcps.EngineStats
	store stcps.StoreStats
	dur   stcps.DurabilityStats
	subs  stcps.SubscriptionStats
	rt    runtimeSample
}

func (t *engineTarget) counters() counters {
	return counters{
		eng: t.eng.Stats(), store: t.eng.StoreStats(), dur: t.eng.DurabilityStats(),
		subs: t.eng.SubscriptionStats(), rt: readRuntime(),
	}
}

// runPhase runs the producer (and the workload's subscribers and query
// client) over one warm-up plus measurement window.
func runPhase(r *rig, o options) (*phaseResult, error) {
	w := r.w
	res := &phaseResult{acks: newAckBook(), qIndex: map[string]int{}}
	srv, err := startServer(frame.ServerConfig{Offer: res.offers.wrap(r.tgt.offer), Materialize: r.lay.wal != ""}, r.sb)
	if err != nil {
		return nil, err
	}
	client, err := dialClient(srv.ln.Addr().String(), res.acks)
	if err != nil {
		srv.wait()
		return nil, err
	}

	s := schedule{
		base: w.Int("preload", 0), open: w.Str("loop", "closed") == "open",
		warm: warmup, measure: time.Duration(o.seconds) * time.Second,
	}
	if s.open {
		s.period = float64(time.Second) / w.Float("rate", 1000)
	}
	s.start = nanotime() + int64(20*time.Millisecond)
	s.from = s.start + int64(s.warm)
	s.to = s.from + int64(s.measure)
	res.sched = s
	res.detectLat, res.pageLat = newSeries(s.from, s.to), newSeries(s.from, s.to)

	var wg sync.WaitGroup
	// Subscribers: one goroutine each, draining with Next until the
	// subscription closes after the producer finishes.
	res.subDigests = make([]digest, len(r.subs))
	var latMu sync.Mutex
	for i, sb := range r.subs {
		wg.Add(1)
		go func(i int, sb *sub.Subscription) {
			defer wg.Done()
			d := newDigest()
			lat := newSeries(s.from, s.to)
			var wait []float64
			for {
				dl, err := sb.Next(context.Background())
				if err != nil {
					break
				}
				at := nanotime()
				d.add(&dl.Inst)
				if k, ok := lastInput(&dl.Inst); ok && k >= s.base {
					if due := s.due(k); due >= s.from && due < s.to {
						lat.add(at, float64(at-due)/1e3)
					}
				}
				if r.pub != nil && dl.HasCursor {
					if p := r.pub.at(dl.Cursor); p > 0 {
						wait = append(wait, float64(at-p)/1e3)
					}
				}
			}
			res.subDigests[i] = d
			latMu.Lock()
			res.detectLat.v = append(res.detectLat.v, lat.v...)
			res.detectLat.at = append(res.detectLat.at, lat.at...)
			res.waitLat = append(res.waitLat, wait...)
			latMu.Unlock()
		}(i, sb)
	}

	// Query client: closed loop, pages region x time x event specs
	// across both tiers, following cursors.
	var stop atomic.Bool
	var tick atomic.Int64
	tick.Store(int64(s.base))
	if w.Str("result", "") == "page" {
		if r.sb != nil {
			res.qb = &spanBuf{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			queryClient(r, o, res, &stop, &tick)
		}()
	}

	// Window-edge counters and CPU.
	edges := make(chan struct{})
	go func() {
		defer close(edges)
		time.Sleep(time.Duration(s.from - nanotime()))
		res.cpu[0] = procCPU()
		if r.eng != nil {
			res.c0 = r.eng.counters()
		}
		time.Sleep(time.Duration(s.to - nanotime()))
		res.cpu[1] = procCPU()
		if r.eng != nil {
			res.c1 = r.eng.counters()
		}
	}()

	cpu0 := procCPU()
	time.Sleep(time.Duration(s.start - nanotime()))
	if s.open {
		res.prod, err = openLoop(client, r.feed, res.acks, &s, w.Int("flush_every_ms", 1), &tick, r.sb != nil)
	} else {
		res.prod, err = closedLoop(client, r.feed, res.acks, &s, &tick, r.sb != nil)
	}
	<-edges
	stop.Store(true)
	cerr := client.Close()
	serr := srv.wait()
	res.cpuTraced = procCPU() - cpu0
	res.serve = srv.stats
	for _, sb := range r.subs {
		sb.Close()
	}
	wg.Wait()
	r.subs = nil
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

// queryClient runs until stop, recording every page for the oracle.
func queryClient(r *rig, o options, res *phaseResult, stop *atomic.Bool, tick *atomic.Int64) {
	w := r.w
	tiles := queryTiles(w)
	rng := rand.New(rand.NewPCG(o.seed, 0x9e3779b9))
	limit, maxPages := w.Int("query_limit", 64), w.Int("query_pages", 4)
	evFrac, span := w.Float("query_event_frac", 0.5), w.Int("query_window", 10000)
	nSensors := len(r.feed.Detectors())
	var buf []byte
	for !stop.Load() {
		q := qdecl{tile: rng.IntN(len(tiles))}
		if rng.Float64() < evFrac {
			q.event = r.feed.Detectors()[rng.IntN(nSensors)].ID
		}
		// Every query is bounded in time, anywhere in the history so far:
		// mostly cold, sometimes the hot tail.
		from := rng.IntN(int(tick.Load()) + 1)
		q.win = &db.TimeWindow{From: stcps.Tick(from), To: stcps.Tick(from + span)}
		res.queries = append(res.queries, q)
		qi := len(res.queries) - 1
		spec := db.QuerySpec{Region: &tiles[q.tile], Event: q.event, Window: q.win, Limit: limit, Tier: db.TierAll}
		for p := 0; p < maxPages && !stop.Load(); p++ {
			t0 := nanotime()
			res.qb.begin(spQuery)
			page, err := r.tgt.query(spec)
			res.qb.end()
			t1 := nanotime()
			if err != nil {
				res.qErrors++
				break
			}
			pr := pageRec{q: qi, frontier: page.Frontier, n: len(page.Instances), sum: newDigest().sum}
			if spec.Cursor != "" {
				pr.after, _ = strconv.ParseUint(spec.Cursor, 10, 64)
				pr.hasAfter = true
			}
			if pr.n > 0 {
				pr.first, pr.last = page.Seqs[0], page.Seqs[pr.n-1]
			}
			d := digest{sum: pr.sum}
			for i := range page.Instances {
				var h uint64
				buf, h = instHash(buf, &page.Instances[i])
				d.mix(h)
			}
			pr.sum = d.sum
			res.pages = append(res.pages, pr)
			if t0 >= res.sched.from && t0 < res.sched.to {
				res.pageLat.add(t1, float64(t1-t0)/1e3)
				res.pagesWin++
				res.qReturned += pr.n
				res.qScanned += page.Scanned
				res.qIndex[page.Index]++
				res.qCold.BlocksRead += page.Cold.BlocksRead
				res.qCold.BlocksPruned += page.Cold.BlocksPruned
				res.qCold.Records += page.Cold.Records
			}
			if page.NextCursor == "" {
				break
			}
			spec.Cursor = page.NextCursor
			// A remote client would wait a round trip here; yielding
			// keeps the closed loop from starving the paced producer of
			// its scheduling slot.
			runtime.Gosched()
		}
		runtime.Gosched()
	}
}

// queryTiles splits the deployment area into query_tiles^2 regions.
func queryTiles(w *Workload) []spatial.Location {
	n, area := w.Int("query_tiles", 8), w.Float("area", 100)
	step := area / float64(n)
	var out []spatial.Location
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f, _ := spatial.Rect(float64(i)*step, float64(j)*step, float64(i+1)*step, float64(j+1)*step)
			out = append(out, spatial.InField(f))
		}
	}
	return out
}

// refInst is the oracle's record of one reference emission.
type refInst struct {
	hash  uint64
	event string
	occ   [2]stcps.Tick
	loc   spatial.Location
	attrs event.Attrs
	rec   int // index of the record whose ingest emitted it
	last  int // largest input index (-1 when unknown)
}

// buildRef runs the reference bank over every record the rig's feed
// produced (preload plus sent) and returns its emissions.
func buildRef(w *Workload, seed uint64, records int) ([]refInst, error) {
	ref, err := newReference(w, seed, nil)
	if err != nil {
		return nil, err
	}
	var out []refInst
	var buf []byte
	ref.run(records, func(rec int, in *stcps.Instance) {
		var h uint64
		buf, h = instHash(buf, in)
		last, ok := lastInput(in)
		if !ok {
			last = -1
		}
		out = append(out, refInst{hash: h, event: in.Event, occ: [2]stcps.Tick{in.Occ.Start(), in.Occ.End()}, loc: in.Loc, attrs: in.Attrs, rec: rec, last: last})
	})
	return out, nil
}

// check verifies a phase against the reference emissions. It returns
// a description of every mismatch.
func check(r *rig, res *phaseResult, ref []refInst) ([]string, digest, error) {
	var bad []string
	want := newDigest()
	for i := range ref {
		want.mix(ref[i].hash)
	}
	got, base, err := storeDigest(r.tgt.query)
	if err != nil {
		return nil, want, err
	}
	if !got.equal(want) {
		bad = append(bad, fmt.Sprintf("store holds %s, reference emitted %s", got, want))
	}
	for i, d := range r.decls {
		w := newDigest()
		for j := range ref {
			if d.filter.matchRef(&ref[j]) {
				w.mix(ref[j].hash)
			}
		}
		if !res.subDigests[i].equal(w) {
			bad = append(bad, fmt.Sprintf("subscription %d delivered %s, reference filter gives %s", i+1, res.subDigests[i], w))
		}
	}
	if len(res.pages) > 0 {
		bad = append(bad, checkPages(r.w, res, ref, base)...)
	}
	return bad, want, nil
}

// matchRef applies the filter to a reference emission.
func (f *subFilter) matchRef(ri *refInst) bool {
	return f.match(&event.Instance{Event: ri.event, Loc: ri.loc, Attrs: ri.attrs})
}

// checkPages verifies every served page: it must equal the first Limit
// reference emissions with after < seq < Frontier matching its spec.
func checkPages(w *Workload, res *phaseResult, ref []refInst, base uint64) []string {
	tiles := queryTiles(w)
	cands := make([][]int, len(tiles))
	for p := range ref {
		for t := range tiles {
			if spatial.OpJoint.Apply(ref[p].loc, tiles[t]) {
				cands[t] = append(cands[t], p)
			}
		}
	}
	limit := w.Int("query_limit", 64)
	var bad []string
	for i, pr := range res.pages {
		q := res.queries[pr.q]
		lst := cands[q.tile]
		k := 0
		if pr.hasAfter {
			k = sort.Search(len(lst), func(j int) bool { return base+uint64(lst[j]) > pr.after })
		}
		want := pageRec{q: pr.q, after: pr.after, hasAfter: pr.hasAfter, frontier: pr.frontier, sum: newDigest().sum}
		d := digest{sum: want.sum}
		for ; k < len(lst) && want.n < limit; k++ {
			p := lst[k]
			seq := base + uint64(p)
			if seq >= pr.frontier {
				break
			}
			ri := &ref[p]
			if q.event != "" && ri.event != q.event {
				continue
			}
			if q.win != nil && (ri.occ[0] > q.win.To || ri.occ[1] < q.win.From) {
				continue
			}
			if want.n == 0 {
				want.first = seq
			}
			want.last = seq
			want.n++
			d.mix(ri.hash)
		}
		want.sum = d.sum
		if want != pr {
			bad = append(bad, fmt.Sprintf("page %d (query %d, after %d, frontier %d): got %d [%d..%d] %x, want %d [%d..%d] %x",
				i, pr.q, pr.after, pr.frontier, pr.n, pr.first, pr.last, pr.sum, want.n, want.first, want.last, want.sum))
			if len(bad) >= 5 {
				break
			}
		}
	}
	return bad
}

// storeDigest pages through every instance a store holds, across both
// tiers, and digests them in sequence order. It also returns the first
// sequence number (the offset of the reference emissions).
func storeDigest(query func(db.QuerySpec) (db.Result, error)) (digest, uint64, error) {
	d := newDigest()
	var base uint64
	spec := db.QuerySpec{Limit: 4096, Tier: db.TierAll}
	for {
		res, err := query(spec)
		if err != nil {
			return d, 0, err
		}
		if d.n == 0 && len(res.Seqs) > 0 {
			base = res.Seqs[0]
		}
		for i := range res.Instances {
			d.add(&res.Instances[i])
		}
		if res.NextCursor == "" {
			return d, base, nil
		}
		spec.Cursor = res.NextCursor
	}
}
