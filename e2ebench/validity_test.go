package main

import (
	"errors"
	"testing"
	"time"
)

// TestOfferBookRate checks the service rate: records over time inside
// Offer, counting only batches completed inside the window.
func TestOfferBookRate(t *testing.T) {
	var b offerBook
	from, to := int64(1e9), int64(2e9)
	for i := 0; i < 400; i++ {
		// 10 records in 100 µs: 100000 rec/s.
		b.at = append(b.at, from+int64(i)*2e6)
		b.recs = append(b.recs, 10)
		b.ns = append(b.ns, 100e3)
	}
	// Outside the window: ignored.
	b.at, b.recs, b.ns = append(b.at, to+1), append(b.recs, 1000), append(b.ns, 1)
	if got := b.rate(from, to); got != 100000 {
		t.Fatalf("rate = %v, want 100000", got)
	}
}

// TestSetupTimedReps checks that set-up repeats until a second of
// set-up time has accumulated, at least minSetups and at most maxSetups
// times, and keeps only the last set-up open.
func TestSetupTimedReps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sleep time.Duration
		want  int
	}{
		{"fast", 0, maxSetups},
		{"slow", 400 * time.Millisecond, minSetups},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := 0
			_, _, reps, err := setupTimed(func(int) (closer, error) {
				time.Sleep(tc.sleep)
				open++
				return closeFunc(func() error { open--; return nil }), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if reps != tc.want || open != 1 {
				t.Fatalf("reps = %d, open = %d; want %d, 1", reps, open, tc.want)
			}
		})
	}
}

type closeFunc func() error

func (f closeFunc) close() error { return f() }

// TestLagBook checks the apply observer: every record applied once per
// copy leaves nothing pending, and a missing replica apply shows.
func TestLagBook(t *testing.T) {
	l := newLagBook(1)
	for _, k := range []string{"a", "b", "a", "c", "b"} {
		l.onApply(0, k)
	}
	if l.applies != 5 || len(l.lags) != 2 || len(l.first) != 1 {
		t.Fatalf("applies %d, lags %d, pending %d; want 5, 2, 1", l.applies, len(l.lags), len(l.first))
	}
}

// TestSpanCounts checks that any count mismatch invalidates the run.
func TestSpanCounts(t *testing.T) {
	if err := spanCounts(countCheck{"x", 3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := spanCounts(countCheck{"x", 3, 3}, countCheck{"y", 2, 3}); !errors.Is(err, errInvalid) {
		t.Fatalf("err = %v, want errInvalid", err)
	}
}
