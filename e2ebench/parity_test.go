package main

import (
	"testing"

	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/sub"
)

// TestTracedCompositionParity pins the traced run's composition (the
// layer packages wired by hand, with spans) to the untraced
// stcps.Engine: on a small seed of every single-node workload both must
// store byte-identical instances, serve byte-identical query pages,
// deliver identical subscription streams and append as many WAL
// records. If stcps changes its wiring, this fails instead of letting
// the traced per-layer split drift from what the engine does.
func TestTracedCompositionParity(t *testing.T) {
	for _, name := range []string{"ingest-steady", "live-detect", "live-detect-wal", "query-history", "query-history-wal"} {
		t.Run(name, func(t *testing.T) {
			w, err := loadWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			// Small enough to be quick, capped low enough that eviction
			// and spilling happen.
			w.props["preload"] = "0"
			if w.Int("retention", 0) > 0 {
				w.props["retention"] = "300"
			}
			o := options{seed: 7, tmp: t.TempDir()}
			const records = 3000

			un, err := setupRig(w, o, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			defer un.close()
			tr, err := setupRig(w, o, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.close()
			for _, r := range []*rig{un, tr} {
				for i := 0; i < records; i++ {
					rec := r.feed.Next()
					if err := r.tgt.ingest(rec.Source(), rec.Entity(), rec.Conf(), rec.Now()); err != nil {
						t.Fatal(err)
					}
				}
			}

			a, _, err := storeDigest(un.tgt.query)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := storeDigest(tr.tgt.query)
			if err != nil {
				t.Fatal(err)
			}
			if !a.equal(b) || a.n == 0 {
				t.Fatalf("stored instances: engine %s, traced composition %s", a, b)
			}
			ref, err := buildRef(w, o.seed, records)
			if err != nil {
				t.Fatal(err)
			}
			want := newDigest()
			for i := range ref {
				want.mix(ref[i].hash)
			}
			if !a.equal(want) {
				t.Fatalf("stored instances %s, reference bank emitted %s", a, want)
			}

			for i, q := range parityQueries(w) {
				pa, pb := pageDigests(t, un.tgt.query, q), pageDigests(t, tr.tgt.query, q)
				if len(pa) != len(pb) {
					t.Fatalf("query %d: %d pages from the engine, %d from the traced composition", i, len(pa), len(pb))
				}
				for j := range pa {
					if pa[j] != pb[j] {
						t.Fatalf("query %d page %d differs", i, j)
					}
				}
			}

			for i := range un.subs {
				da, db := drain(un.subs[i]), drain(tr.subs[i])
				if !da.equal(db) {
					t.Fatalf("subscription %d: engine delivered %s, traced composition %s", i+1, da, db)
				}
			}

			if un.lay.wal != "" {
				got := tr.tgt.(*tracedTarget).log.Stats().Appended
				if exp := un.eng.eng.DurabilityStats().Appended; got != exp {
					t.Fatalf("WAL records: engine appended %d, traced composition %d", exp, got)
				}
			}
		})
	}
}

// parityQueries is a fixed mix across both tiers: everything, one
// event, one region tile, and a time window, each paged.
func parityQueries(w *Workload) []db.QuerySpec {
	tiles := queryTiles(w)
	f, _ := spatial.Rect(0, 0, w.Float("area", 100)/2, w.Float("area", 100)/2)
	half := spatial.InField(f)
	return []db.QuerySpec{
		{Limit: 97},
		{Event: "E.hot.1", Limit: 13},
		{Event: "E.join.3", Limit: 13},
		{Event: "E.h5", Limit: 13},
		{Region: &tiles[len(tiles)/2], Limit: 31},
		{Region: &half, Window: &db.TimeWindow{From: 500, To: 1500}, Limit: 29},
	}
}

// pageDigests pages through spec and digests each page.
func pageDigests(t *testing.T, query func(db.QuerySpec) (db.Result, error), spec db.QuerySpec) []string {
	t.Helper()
	var out []string
	for {
		res, err := query(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for i := range res.Instances {
			d.add(&res.Instances[i])
		}
		out = append(out, d.String())
		if res.NextCursor == "" {
			return out
		}
		spec.Cursor = res.NextCursor
	}
}

// drain reads every delivery buffered on a subscription.
func drain(s *sub.Subscription) digest {
	d := newDigest()
	for {
		dl, ok, err := s.Poll()
		if err != nil || !ok {
			return d
		}
		d.add(&dl.Inst)
	}
}

// TestClusterFrontParity pins the traced cluster path, a wire server of
// the benchmark's own in front of node 0's coordinator, to the node's
// own listener: through either, the gathered cluster view must equal
// the single-node oracle byte for byte.
func TestClusterFrontParity(t *testing.T) {
	w, err := loadWorkload("cluster-replicated")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 7, tmp: t.TempDir()}
	for _, front := range []bool{false, true} {
		cr, err := setupCluster(w, o, front)
		if err != nil {
			t.Fatal(err)
		}
		addr := cr.h.Nodes[0].Addr
		var srv *server
		if front {
			srv, err = startServer(frame.ServerConfig{Materialize: true, Offer: cr.h.Nodes[0].CL.Coord.OfferBatch}, nil)
			if err != nil {
				t.Fatal(err)
			}
			addr = srv.ln.Addr().String()
		}
		c, err := dialClient(addr, newAckBook())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			rec := cr.feed.Next()
			if err := rec.send(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if srv != nil {
			if err := srv.wait(); err != nil {
				t.Fatal(err)
			}
		}
		bad, _, want, err := checkCluster(cr, o, w, 2000)
		cr.close()
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 || want.n == 0 {
			t.Fatalf("front=%v: oracle %s: %v", front, want, bad)
		}
	}
}
