// Command alerting demonstrates the standing-subscription subsystem:
// the push half of the paper's architecture extended to external
// consumers. A livefeed-style generator streams temperature readings
// from two wings of a building into a store-backed detection engine;
// region-scoped subscriptions — the paper's spatio-temporal predicates
// as standing queries — receive every matching alert the moment it is
// detected, instead of polling /v1/query.
//
// Three subscribers show the subsystem's shapes:
//
//   - north: a region-scoped live subscription (alerts from the north
//     wing only),
//   - south-critical: region-scoped plus a compiled condition over the
//     pushed instance ("e.temp > 36"),
//   - auditor: joins mid-stream with catch-up replay — it first
//     receives the alerts it missed (replayed from the store by
//     cursor), then splices onto the live feed with no gap and no
//     duplicate.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"github.com/stcps/stcps"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// consume drains one subscription to stdout: deliveries as they are
// pushed (or replayed, consumer-paced), then a final drain once the
// feed has finished.
func consume(wg *sync.WaitGroup, feedDone <-chan struct{}, name string, s *stcps.Subscription, mu *sync.Mutex, counts map[string]int) {
	defer wg.Done()
	print := func(d stcps.SubDelivery) {
		tag := "live"
		if d.Replayed {
			tag = "replay"
		}
		mu.Lock()
		counts[name]++
		fmt.Printf("  [%-14s] %-6s cursor=%-3d %s t=%v temp=%.1f at %v\n",
			name, tag, d.Cursor, d.Inst.Event, d.Inst.Occ, d.Inst.Attrs["temp"], d.Inst.Loc)
		mu.Unlock()
	}
	for {
		d, ok, err := s.Poll()
		if err != nil {
			fmt.Printf("  [%-14s] stream error: %v\n", name, err)
			return
		}
		if ok {
			print(d)
			continue
		}
		select {
		case <-s.Notify(): // more deliveries landed
		case <-feedDone:
			for { // everything is buffered by now: final drain
				d, ok, err := s.Poll()
				if err != nil || !ok {
					return
				}
				print(d)
			}
		}
	}
}

func run() error {
	eng, err := stcps.NewEngine(stcps.EngineConfig{
		Observer:  "CCU-alerts",
		Loc:       stcps.AtPoint(50, 50),
		WithStore: true, // the store turns live push into gapless catch-up
	})
	if err != nil {
		return err
	}
	// One alert per hot reading; the reading's location becomes the
	// alert's estimated occurrence location, which the region-scoped
	// subscriptions match against.
	if err := eng.Detect(stcps.LayerCyber, stcps.EventSpec{
		ID:    "E.hot",
		Roles: []stcps.Role{{Name: "x", Source: "S.temp", Window: 1}},
		When:  "x.temp > 30",
	}); err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}

	north, err := rectLoc(0, 50, 100, 100)
	if err != nil {
		return err
	}
	south, err := rectLoc(0, 0, 100, 50)
	if err != nil {
		return err
	}
	everywhere, err := rectLoc(0, 0, 100, 100)
	if err != nil {
		return err
	}

	var (
		mu       sync.Mutex
		counts   = make(map[string]int)
		wg       sync.WaitGroup
		feedDone = make(chan struct{})
	)
	fmt.Println("=== alerting: region-scoped standing subscriptions over the live feed ===")
	nSub, err := eng.Subscribe(stcps.SubscriptionSpec{Event: "E.hot", Region: north})
	if err != nil {
		return err
	}
	sSub, err := eng.Subscribe(stcps.SubscriptionSpec{
		Event: "E.hot", Region: south, Where: "e.temp > 36",
	})
	if err != nil {
		return err
	}
	wg.Add(2)
	go consume(&wg, feedDone, "north", nSub, &mu, counts)
	go consume(&wg, feedDone, "south-critical", sSub, &mu, counts)

	// The livefeed generator: two wings, temperatures ramping with
	// jitter so alerts start partway through the stream.
	rng := rand.New(rand.NewSource(42))
	wings := []struct {
		room string
		x, y float64
	}{
		{room: "north-lab", x: 30, y: 80},
		{room: "south-store", x: 70, y: 20},
	}
	const total = 40
	feed := func(i int) error {
		w := wings[i%len(wings)]
		reading := stcps.Instance{
			Layer:      stcps.LayerSensor,
			Observer:   "MT-" + w.room,
			Event:      "S.temp",
			Seq:        uint64(i + 1),
			Gen:        stcps.Tick(i * 5),
			GenLoc:     stcps.AtPoint(w.x, w.y),
			Occ:        stcps.At(stcps.Tick(i * 5)),
			Loc:        stcps.AtPoint(w.x+rng.Float64(), w.y+rng.Float64()),
			Attrs:      stcps.Attrs{"temp": 24 + float64(i)/2 + rng.Float64()*3},
			Confidence: 0.95,
		}
		_, err := eng.Feed(reading)
		return err
	}
	for i := 0; i < total/2; i++ {
		if err := feed(i); err != nil {
			return err
		}
	}

	// An auditor joins mid-stream with catch-up: everything it missed
	// replays from the store before the live feed resumes — no gaps, no
	// duplicates, exactly what a reconnecting dashboard does.
	fmt.Println("--- auditor joins mid-stream with catch-up replay ---")
	audit, err := eng.Subscribe(stcps.SubscriptionSpec{
		Event: "E.hot", Region: everywhere, Replay: true,
	})
	if err != nil {
		return err
	}
	wg.Add(1)
	go consume(&wg, feedDone, "auditor", audit, &mu, counts)
	for i := total / 2; i < total; i++ {
		if err := feed(i); err != nil {
			return err
		}
	}

	// Flush closes open detections; after it returns every delivery is
	// buffered (or pending in a consumer-paced replay), so the
	// subscribers can drain and exit.
	eng.Flush(stcps.Tick(total * 5))
	close(feedDone)
	wg.Wait()
	nSub.Close()
	sSub.Close()
	audit.Close()

	st := eng.SubscriptionStats()
	fmt.Printf("\nsubscriptions: published=%d matched=%d delivered=%d replayed=%d dropped=%d\n",
		st.Published, st.Matched, st.Delivered, st.Replayed, st.Dropped)
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"north", "south-critical", "auditor"} {
		fmt.Printf("  %-15s %d alerts\n", name, counts[name])
	}
	if counts["north"] == 0 || counts["south-critical"] == 0 || counts["auditor"] == 0 {
		return fmt.Errorf("a subscriber saw no alerts: %v", counts)
	}
	// The auditor covers both wings with no condition filter, so its
	// catch-up + live stream must hold every alert the engine raised —
	// the exactly-once guarantee, checked against the engine's counter.
	if emitted := int(eng.Stats().Emitted); counts["auditor"] != emitted {
		return fmt.Errorf("auditor saw %d alerts, engine emitted %d", counts["auditor"], emitted)
	}
	return nil
}

// rectLoc builds a rectangular region location.
func rectLoc(x1, y1, x2, y2 float64) (*stcps.Location, error) {
	f, err := stcps.Rect(x1, y1, x2, y2)
	if err != nil {
		return nil, err
	}
	loc := stcps.InField(f)
	return &loc, nil
}
