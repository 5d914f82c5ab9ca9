package db

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func inst(observer, eventID string, seq uint64, occ timemodel.Time, loc spatial.Location) event.Instance {
	return event.Instance{
		Layer:      event.LayerSensor,
		Observer:   observer,
		Event:      eventID,
		Seq:        seq,
		Gen:        occ.End() + 1,
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        occ,
		Loc:        loc,
		Confidence: 1,
	}
}

func TestLogAndGet(t *testing.T) {
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	in := inst("MT1", "S.hot", 1, timemodel.At(10), spatial.AtPoint(1, 1))
	if err := s.Log(in); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(in.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	if got.EntityID() != in.EntityID() {
		t.Errorf("Get = %q", got.EntityID())
	}
	if _, err := s.Get("E(x,y,9)"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing Get err = %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	// Duplicate log is idempotent.
	if err := s.Log(in); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("duplicate changed Len = %d", s.Len())
	}
	// Invalid instance rejected.
	bad := in
	bad.Confidence = 5
	if err := s.Log(bad); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestQueryTime(t *testing.T) {
	s, _ := New(0)
	// Insert out of occurrence order to exercise the ordered index.
	_ = s.Log(inst("M", "E", 1, timemodel.MustBetween(50, 60), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "E", 2, timemodel.At(10), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "E", 3, timemodel.MustBetween(90, 120), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "other", 4, timemodel.At(55), spatial.AtPoint(0, 0)))

	query := func(eventID string, from, to timemodel.Tick) []event.Instance {
		t.Helper()
		res, err := s.QueryST(QuerySpec{Event: eventID, Window: &TimeWindow{From: from, To: to}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Instances
	}
	got := query("E", 0, 200)
	if len(got) != 3 {
		t.Fatalf("all = %d, want 3", len(got))
	}
	// Pages come in arrival order, whatever the occurrence order.
	if got[0].Occ.Start() != 50 || got[1].Occ.Start() != 10 || got[2].Occ.Start() != 90 {
		t.Fatalf("order wrong: %v %v %v", got[0].Occ, got[1].Occ, got[2].Occ)
	}
	// Range intersecting only the interval [50,60].
	got = query("E", 55, 70)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("range query = %+v", got)
	}
	// Empty range.
	if got := query("E", 200, 100); len(got) != 0 {
		t.Fatal("inverted range should be empty")
	}
	if got := query("E", 61, 89); len(got) != 0 {
		t.Fatalf("gap query = %d", len(got))
	}
	// Empty event id scans everything.
	if got := query("", 0, 200); len(got) != 4 {
		t.Fatalf("scan-all = %d, want 4", len(got))
	}
}

func TestQueryTimeMatchesScan(t *testing.T) {
	s, _ := New(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		start := timemodel.Tick(rng.Intn(1000))
		length := timemodel.Tick(rng.Intn(50))
		_ = s.Log(inst("M", "E", uint64(i+1), timemodel.MustBetween(start, start+length),
			spatial.AtPoint(rng.Float64()*100, rng.Float64()*100)))
	}
	for trial := 0; trial < 30; trial++ {
		from := timemodel.Tick(rng.Intn(1000))
		to := from + timemodel.Tick(rng.Intn(200))
		res, err := s.QueryST(QuerySpec{Event: "E", Window: &TimeWindow{From: from, To: to}})
		if err != nil {
			t.Fatal(err)
		}
		a := res.Instances
		b := s.ScanTime("E", from, to)
		if len(a) != len(b) {
			t.Fatalf("trial %d: index %d != scan %d", trial, len(a), len(b))
		}
		ids := func(list []event.Instance) []string {
			out := make([]string, len(list))
			for i, in := range list {
				out[i] = in.EntityID()
			}
			sort.Strings(out)
			return out
		}
		ai, bi := ids(a), ids(b)
		for i := range ai {
			if ai[i] != bi[i] {
				t.Fatalf("trial %d: results differ", trial)
			}
		}
	}
}

func TestQueryRegionMatchesScan(t *testing.T) {
	s, _ := New(8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		_ = s.Log(inst("M", "E", uint64(i+1), timemodel.At(timemodel.Tick(i)),
			spatial.AtPoint(rng.Float64()*100, rng.Float64()*100)))
	}
	for trial := 0; trial < 20; trial++ {
		x, y := rng.Float64()*80, rng.Float64()*80
		f, err := spatial.Rect(x, y, x+15, y+15)
		if err != nil {
			t.Fatal(err)
		}
		region := spatial.InField(f)
		res, err := s.QueryST(QuerySpec{Region: &region})
		if err != nil {
			t.Fatal(err)
		}
		a := res.Instances
		b := s.ScanRegion(region)
		if len(a) != len(b) {
			t.Fatalf("trial %d: index %d != scan %d", trial, len(a), len(b))
		}
	}
}

func TestLineage(t *testing.T) {
	s, _ := New(0)
	o := event.Observation{Mote: "MT1", Sensor: "SR", Seq: 1, Time: timemodel.At(5), Loc: spatial.AtPoint(0, 0)}
	s.LogObservation(o)

	sensor := inst("MT1", "S.e", 1, timemodel.At(5), spatial.AtPoint(0, 0))
	sensor.Inputs = []string{o.EntityID()}
	_ = s.Log(sensor)

	cp := inst("sink1", "CP.e", 1, timemodel.At(5), spatial.AtPoint(0, 0))
	cp.Layer = event.LayerCyberPhysical
	cp.Inputs = []string{sensor.EntityID()}
	_ = s.Log(cp)

	cyber := inst("CCU1", "E.e", 1, timemodel.At(5), spatial.AtPoint(0, 0))
	cyber.Layer = event.LayerCyber
	cyber.Inputs = []string{cp.EntityID()}
	_ = s.Log(cyber)

	chain, err := s.Lineage(cyber.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{cyber.EntityID(), cp.EntityID(), sensor.EntityID(), o.EntityID()}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
	if _, err := s.Lineage("E(none,none,0)"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lineage err = %v", err)
	}
	// Lineage of a logged observation resolves to itself.
	chain, err = s.Lineage(o.EntityID())
	if err != nil || len(chain) != 1 {
		t.Errorf("observation lineage = %v, %v", chain, err)
	}
}

func TestLineageCycleSafe(t *testing.T) {
	s, _ := New(0)
	a := inst("M", "E", 1, timemodel.At(1), spatial.AtPoint(0, 0))
	b := inst("M", "E", 2, timemodel.At(2), spatial.AtPoint(0, 0))
	a.Inputs = []string{b.EntityID()}
	b.Inputs = []string{a.EntityID()} // pathological cycle
	_ = s.Log(a)
	_ = s.Log(b)
	chain, err := s.Lineage(a.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("cycle chain = %v", chain)
	}
}

func TestEventIDsAndAll(t *testing.T) {
	s, _ := New(0)
	_ = s.Log(inst("M", "B", 1, timemodel.At(1), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "A", 1, timemodel.At(2), spatial.AtPoint(0, 0)))
	ids := s.EventIDs()
	if len(ids) != 2 || ids[0] != "A" || ids[1] != "B" {
		t.Errorf("EventIDs = %v", ids)
	}
	all := s.All()
	if len(all) != 2 || all[0].Event != "B" {
		t.Errorf("All = %v", all)
	}
}

func TestConcurrentLogAndQuery(t *testing.T) {
	s, _ := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in := inst(fmt.Sprintf("M%d", g), "E", uint64(i+1), timemodel.At(timemodel.Tick(i)), spatial.AtPoint(float64(i), float64(g)))
				if err := s.Log(in); err != nil {
					t.Errorf("log: %v", err)
					return
				}
				if _, err := s.QueryST(QuerySpec{Event: "E", Window: &TimeWindow{From: 0, To: timemodel.Tick(i)}}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}
