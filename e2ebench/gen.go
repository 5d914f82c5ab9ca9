package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/wireclient"
)

// observer is the observer id every engine under test and every
// reference bank stamps on its emissions.
const observer = "bench"

// engineLoc is the generation location of every engine and bank.
var engineLoc = stcps.AtPoint(0, 0)

// Record is one generated input: an observation or a sensor-layer
// instance. Index is its position in the feed; it is also encoded in
// the entity's sequence number (Index+1), so the due time of any input
// named in Instance.Inputs can be recovered from its id.
type Record struct {
	Index  int
	IsInst bool
	Obs    event.Observation
	Inst   event.Instance
}

// Source, Entity, Conf and Now give the record's engine ingest
// arguments, the same ones frame.Batch yields on the server.
func (r *Record) Source() string {
	if r.IsInst {
		return r.Inst.Event
	}
	return r.Obs.Sensor
}

func (r *Record) Entity() event.Entity {
	if r.IsInst {
		return r.Inst
	}
	return r.Obs
}

func (r *Record) Conf() float64 {
	if r.IsInst {
		return r.Inst.Confidence
	}
	return 1
}

func (r *Record) Now() timemodel.Tick {
	if r.IsInst {
		return r.Inst.Gen
	}
	return r.Obs.Time.End()
}

// send writes the record to a wire client.
func (r *Record) send(c *wireclient.Client) error {
	if r.IsInst {
		return c.SendInstance(&r.Inst)
	}
	return c.SendObservation(&r.Obs)
}

// inputIndex recovers a feed index from an input entity id such as
// "O(M,S.a3,124)" or "E(MT2,S.temp2,57)": the trailing sequence number
// minus one.
func inputIndex(id string) (int, bool) {
	i := strings.LastIndexByte(id, ',')
	if i < 0 || !strings.HasSuffix(id, ")") {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+1 : len(id)-1])
	if err != nil || n < 1 {
		return 0, false
	}
	return n - 1, true
}

// lastInput is the largest feed index among an instance's inputs.
func lastInput(in *event.Instance) (int, bool) {
	last, ok := -1, false
	for _, id := range in.Inputs {
		if i, good := inputIndex(id); good && i > last {
			last, ok = i, true
		}
	}
	return last, ok
}

// Detector is one declared detected event, convertible to both the
// public stcps.EventSpec and the detect.Spec the traced composition
// registers on a bare engine.Bank.
type Detector struct {
	ID         string
	Layer      stcps.Layer
	Roles      []stcps.Role
	When       string
	Interval   bool
	Confidence string
}

func (d Detector) eventSpec() stcps.EventSpec {
	return stcps.EventSpec{ID: d.ID, Roles: d.Roles, When: d.When, Interval: d.Interval, Confidence: d.Confidence}
}

// detectSpec mirrors stcps.EventSpec's conversion for the fields the
// benchmark uses; the parity test pins the two paths together.
func (d Detector) detectSpec() (detect.Spec, error) {
	cond, err := condition.Parse(d.When)
	if err != nil {
		return detect.Spec{}, fmt.Errorf("event %q: %w", d.ID, err)
	}
	roles := make([]detect.RoleSpec, len(d.Roles))
	for i, r := range d.Roles {
		roles[i] = detect.RoleSpec{Name: r.Name, Source: r.Source, Window: r.Window, MaxAge: timemodel.Tick(r.MaxAge)}
	}
	spec := detect.Spec{EventID: d.ID, Layer: event.Layer(d.Layer), Roles: roles, Cond: cond}
	if d.Interval {
		spec.Mode = detect.ModeInterval
	}
	if d.Confidence != "" {
		p, ok := detect.ParsePolicy(d.Confidence)
		if !ok {
			return detect.Spec{}, fmt.Errorf("event %q: unknown confidence policy %q", d.ID, d.Confidence)
		}
		spec.Confidence = p
	}
	return spec, nil
}

// point is a sensor or zone position.
type point struct{ x, y float64 }

// Feed generates a workload's inputs deterministically from the seed.
// Two feeds built from the same workload, seed and cells yield the same
// records in the same order, so the reference run regenerates inputs
// instead of storing them. The deployment (sensor and zone positions)
// comes from a fixed layout seed, so it is part of the workload; --seed
// varies the readings and their order.
type Feed struct {
	kind      string
	rng       *rand.Rand
	next      int
	detectors []Detector
	// pos holds one position per sensor (join, history) or zone (soak)
	// or partition cell (cells).
	pos    []point
	jitter float64
}

// newFeed builds the feed of w for seed. cells, for the cluster feed,
// holds one point per partition (from the cluster router).
func newFeed(w *Workload, seed uint64, cells []point) (*Feed, error) {
	f := &Feed{kind: w.Str("feed", ""), rng: rand.New(rand.NewPCG(seed, 0x5eed))}
	area := w.Float("area", 100)
	layout := rand.New(rand.NewPCG(1, 0x1a7))
	place := func(n int) {
		f.pos = make([]point, n)
		for i := range f.pos {
			f.pos[i] = point{layout.Float64() * area, layout.Float64() * area}
		}
	}
	win := w.Int("window", 4)
	switch f.kind {
	case "join":
		// Per detector, a pair of sensors a/b; a y reading joins the
		// earlier x readings of its pair it is at least as large as and
		// close enough to.
		n := w.Int("detectors", 64)
		place(2 * n)
		f.jitter = 2
		for d := 0; d < n; d++ {
			f.detectors = append(f.detectors, Detector{
				ID:    fmt.Sprintf("E.join.%d", d),
				Layer: stcps.LayerCyberPhysical,
				Roles: []stcps.Role{
					{Name: "x", Source: fmt.Sprintf("S.a%d", d), Window: win},
					{Name: "y", Source: fmt.Sprintf("S.b%d", d), Window: win},
				},
				When: "x.time before y.time and y.v >= x.v and dist(x.loc, y.loc) < 40",
			})
		}
	case "soak":
		// Per zone: a threshold on raw readings, an interval over the
		// sensor-layer temperature instances (opens above 20, closes at
		// the next reading below), and a noisy-or fusion of both.
		n := w.Int("zones", 16)
		place(n)
		f.jitter = 5
		for z := 0; z < n; z++ {
			obs, inst := fmt.Sprintf("S.t%d", z), fmt.Sprintf("S.temp%d", z)
			f.detectors = append(f.detectors,
				Detector{
					ID: fmt.Sprintf("E.hot.%d", z), Layer: stcps.LayerCyberPhysical,
					Roles: []stcps.Role{{Name: "x", Source: obs, Window: 2}},
					When:  "x.temp > 30",
				},
				Detector{
					ID: fmt.Sprintf("E.warm.%d", z), Layer: stcps.LayerCyberPhysical,
					Roles:    []stcps.Role{{Name: "x", Source: inst, Window: 2}},
					When:     "x.temp > 20",
					Interval: true,
				},
				Detector{
					ID: fmt.Sprintf("E.fused.%d", z), Layer: stcps.LayerCyber,
					Roles: []stcps.Role{
						{Name: "x", Source: obs, Window: 2},
						{Name: "y", Source: inst, Window: 2},
					},
					When:       "x.temp > 20 and y.temp > 20 and x.time before y.time",
					Confidence: "noisy-or",
				})
		}
	case "history":
		// One single-role threshold detector per sensor, spread over a
		// wide area.
		n := w.Int("sensors", 256)
		place(n)
		for s := 0; s < n; s++ {
			f.detectors = append(f.detectors, Detector{
				ID: fmt.Sprintf("E.h%d", s), Layer: stcps.LayerCyberPhysical,
				Roles: []stcps.Role{{Name: "x", Source: fmt.Sprintf("S.h%d", s), Window: 1}},
				When:  "x.v > 0.2",
			})
		}
	case "cells":
		// E17's differential stream: per partition cell a punctual
		// filter and a two-role order-sensitive join, sensors pinned
		// inside their cell.
		if len(cells) == 0 {
			return nil, fmt.Errorf("feed cells: no partition cells")
		}
		f.pos = cells
		for c := range cells {
			a, b := fmt.Sprintf("S.a%d", c), fmt.Sprintf("S.b%d", c)
			f.detectors = append(f.detectors,
				Detector{
					ID: fmt.Sprintf("E.solo.%d", c), Layer: stcps.LayerCyber,
					Roles: []stcps.Role{{Name: "x", Source: a, Window: win}},
					When:  "x.v > 0.5",
				},
				Detector{
					ID: fmt.Sprintf("E.join.%d", c), Layer: stcps.LayerCyber,
					Roles: []stcps.Role{
						{Name: "x", Source: a, Window: win},
						{Name: "y", Source: b, Window: win},
					},
					When: "x.time before y.time and y.v >= x.v",
				})
		}
	default:
		return nil, fmt.Errorf("workload %s: unknown feed %q", w.Name, f.kind)
	}
	return f, nil
}

// Detectors returns the feed's detector declarations.
func (f *Feed) Detectors() []Detector { return f.detectors }

// at returns a location near p.
func (f *Feed) at(p point) stcps.Location {
	if f.jitter == 0 {
		return stcps.AtPoint(p.x, p.y)
	}
	return stcps.AtPoint(p.x+(f.rng.Float64()-0.5)*f.jitter, p.y+(f.rng.Float64()-0.5)*f.jitter)
}

// Next returns the next record. Ticks increase strictly with the index.
func (f *Feed) Next() Record {
	i := f.next
	f.next++
	r := Record{Index: i}
	tick := timemodel.Tick(i + 1)
	obs := func(mote, sensor string, p point, attr string, v float64) {
		r.Obs = event.Observation{
			Mote: mote, Sensor: sensor, Seq: uint64(i + 1),
			Time: timemodel.At(tick), Loc: f.at(p),
			Attrs: event.Attrs{attr: v},
		}
	}
	switch f.kind {
	case "join":
		s := f.rng.IntN(len(f.pos))
		role := "a"
		if s%2 == 1 {
			role = "b"
		}
		obs("M", fmt.Sprintf("S.%s%d", role, s/2), f.pos[s], "v", float64(f.rng.IntN(100))/100)
	case "soak":
		z := f.rng.IntN(len(f.pos))
		temp := float64(15+10*f.rng.IntN(3)) + float64(f.rng.IntN(10))/10
		if f.rng.IntN(2) == 0 {
			obs(fmt.Sprintf("MZ%d", z), fmt.Sprintf("S.t%d", z), f.pos[z], "temp", temp)
			break
		}
		r.IsInst = true
		r.Inst = event.Instance{
			Layer: event.LayerSensor, Observer: fmt.Sprintf("MT%d", z),
			Event: fmt.Sprintf("S.temp%d", z), Seq: uint64(i + 1), Gen: tick,
			GenLoc: stcps.AtPoint(f.pos[z].x, f.pos[z].y), Occ: timemodel.At(tick),
			Loc: f.at(f.pos[z]), Attrs: event.Attrs{"temp": temp},
			Confidence: 0.5 + float64(f.rng.IntN(50))/100,
		}
	case "history":
		s := f.rng.IntN(len(f.pos))
		obs("M", fmt.Sprintf("S.h%d", s), f.pos[s], "v", float64(f.rng.IntN(100))/100)
	case "cells":
		c := f.rng.IntN(len(f.pos))
		role := "a"
		if f.rng.IntN(2) == 1 {
			role = "b"
		}
		obs("MT", fmt.Sprintf("S.%s%d", role, c), f.pos[c], "v", float64(f.rng.IntN(10))/10)
	}
	return r
}
