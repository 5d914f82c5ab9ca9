package cluster

import (
	"errors"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/spatial"
)

func TestParseNodes(t *testing.T) {
	nodes, err := ParseNodes("10.0.0.1:9090/10.0.0.1:8080, 10.0.0.2:9090/10.0.0.2:8080")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Wire != "10.0.0.1:9090" || nodes[1].HTTP != "10.0.0.2:8080" {
		t.Fatalf("parsed %+v", nodes)
	}
	for _, bad := range []string{"", "hostonly", "a/,b/c", "/x"} {
		if _, err := ParseNodes(bad); !errors.Is(err, ErrConfig) {
			t.Fatalf("ParseNodes(%q) = %v, want ErrConfig", bad, err)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	nodes := []NodeSpec{{Wire: "a", HTTP: "b"}, {Wire: "c", HTTP: "d"}, {Wire: "e", HTTP: "f"}}
	cfg, err := Config{Nodes: nodes, Self: 1, Replicas: 99}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 2 {
		t.Fatalf("Replicas clamped to %d, want 2", cfg.Replicas)
	}
	if cfg.Cell <= 0 || cfg.ProbeInterval <= 0 || cfg.DownAfter <= 0 || !cfg.LinkRetry.Enabled {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if _, err := (Config{Nodes: nodes, Self: 3}).normalize(); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range self accepted: %v", err)
	}
	if _, err := (Config{}).normalize(); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty node list accepted: %v", err)
	}
}

// testRouter builds a 3-node router with all peers alive and no probe
// goroutines.
func testRouter(t *testing.T, self int) (*Router, *Membership) {
	t.Helper()
	cfg, err := Config{
		Nodes: []NodeSpec{{Wire: "n0", HTTP: "h0"}, {Wire: "n1", HTTP: "h1"}, {Wire: "n2", HTTP: "h2"}},
		Self:  self,
	}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMembership(cfg, func(NodeSpec, time.Duration) error { return nil })
	return NewRouter(cfg, m), m
}

func TestPartitionOfRoutesByCell(t *testing.T) {
	r, _ := testRouter(t, 0)
	// Points inside one default cell (64.0) route identically.
	a := r.PartitionOf(spatial.AtPoint(10, 10))
	b := r.PartitionOf(spatial.AtPoint(63, 0.5))
	if a != b {
		t.Fatalf("same-cell points split: %d vs %d", a, b)
	}
	if a < 0 || a >= r.Partitions() {
		t.Fatalf("partition %d out of range", a)
	}
	// A field routes by its centroid, same as the equivalent point.
	f, err := spatial.NewField([]spatial.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 20, Y: 20}, {X: 0, Y: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PartitionOf(spatial.InField(f)); got != r.PartitionOf(spatial.AtPt(f.Centroid())) {
		t.Fatalf("field does not route by centroid: %d", got)
	}
	// Distinct cells spread across partitions.
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[r.PartitionOf(spatial.AtPoint(float64(i)*64, float64(i)*128))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct cells landed on %d partitions", len(seen))
	}
}

func TestChainAndFailover(t *testing.T) {
	r, m := testRouter(t, 0)
	chain := r.Chain(2)
	if len(chain) != 2 || chain[0] != 2 || chain[1] != 0 {
		t.Fatalf("Chain(2) = %v, want [2 0]", chain)
	}
	if o, ok := r.ActingOwner(2); !ok || o != 2 {
		t.Fatalf("ActingOwner(2) = %d,%v want 2", o, ok)
	}
	// Suspect drops the owner out; the first follower takes over.
	m.ReportFailure(2)
	if m.State(2) != Suspect {
		t.Fatalf("state after ReportFailure = %v", m.State(2))
	}
	if o, ok := r.ActingOwner(2); !ok || o != 0 {
		t.Fatalf("failover ActingOwner(2) = %d,%v want 0 (self)", o, ok)
	}
	// Followers of partition 2 for acting owner 0: only node 2 remains
	// in the chain and it is not routable — no targets.
	if fo := r.Followers(2, 0); len(fo) != 0 {
		t.Fatalf("Followers(2,0) with node2 down = %v", fo)
	}
	if fo := r.Followers(0, 0); len(fo) != 1 || fo[0] != 1 {
		t.Fatalf("Followers(0,0) = %v, want [1]", fo)
	}
	// Whole chain gone: partition 1's chain is [1 2], both dead.
	m.states[1].Store(int32(Down))
	m.states[2].Store(int32(Down))
	if _, ok := r.ActingOwner(1); ok {
		t.Fatal("ActingOwner(1) resolved with the whole chain down")
	}
	owners := r.Owners()
	if owners[1].Node != "down" {
		t.Fatalf("Owners()[1].Node = %q, want down", owners[1].Node)
	}
	if owners[0].Node != "n0" {
		t.Fatalf("Owners()[0].Node = %q, want n0 (self alive)", owners[0].Node)
	}
}

func TestDedupWindow(t *testing.T) {
	d := NewDedup()
	// In-order admits.
	for i := uint64(0); i < 5; i++ {
		if !d.Admit(1, 0, i) {
			t.Fatalf("seq %d rejected", i)
		}
	}
	// Exact duplicates rejected, below and at the window base.
	for i := uint64(0); i < 5; i++ {
		if d.Admit(1, 0, i) {
			t.Fatalf("dup seq %d admitted", i)
		}
	}
	// Out-of-order first deliveries admit and collapse into the base.
	if !d.Admit(1, 0, 7) || d.Pending() != 1 {
		t.Fatalf("out-of-order admit failed, pending=%d", d.Pending())
	}
	if !d.Admit(1, 0, 6) || d.Admit(1, 0, 7) || d.Admit(1, 0, 6) {
		t.Fatal("window dedup failed around the gap")
	}
	if !d.Admit(1, 0, 5) || d.Pending() != 0 {
		t.Fatalf("gap fill did not collapse the window, pending=%d", d.Pending())
	}
	if !d.Admit(1, 0, 8) {
		t.Fatal("base did not advance past the collapsed window")
	}
	// Streams are independent per (partition, origin).
	if !d.Admit(2, 0, 0) || !d.Admit(1, 1, 0) {
		t.Fatal("distinct streams share a window")
	}
}

func TestStampIndex(t *testing.T) {
	var x StampIndex
	x.Record(0, 100, 2)
	x.Record(1, 101, 0)
	if s, p, ok := x.Lookup(1); !ok || s != 101 || p != 0 {
		t.Fatalf("Lookup(1) = %v %v %v", s, p, ok)
	}
	// First write wins: a deduplicated re-apply cannot restamp.
	x.Record(1, 999, 1)
	if s, _, _ := x.Lookup(1); s != 101 {
		t.Fatalf("restamped: %v", s)
	}
	// Gaps (seqs logged outside the cluster path) read as misses.
	x.Record(5, 105, 1)
	if _, _, ok := x.Lookup(3); ok {
		t.Fatal("gap seq resolved")
	}
	if s, p, ok := x.Lookup(5); !ok || s != 105 || p != 1 {
		t.Fatalf("Lookup(5) = %v %v %v", s, p, ok)
	}
	if _, _, ok := x.Lookup(99); ok {
		t.Fatal("unrecorded seq resolved")
	}
}

// FuzzParseCursor: the composite cursor arrives from HTTP clients, so
// parsing must never panic, and a cursor it accepts must be exactly the
// one encodeCursor mints for the parsed states.
func FuzzParseCursor(f *testing.F) {
	f.Add(encodeCursor([]partCursor{{node: 0, cursor: "15"}, {node: 2, cursor: ""}, {node: 1, cursor: "7"}}), uint8(2))
	for _, s := range []string{"", "v9~0:0:", "c1~x:0:", "c1~0:9:", "c1~0:0", "c1~9:0:", "c1~0:0:5", "c1~0:0:1,0:1:2,2:0:3", "c1~0:1:a:b,1:0:"} {
		f.Add(s, uint8(2))
	}
	f.Fuzz(func(t *testing.T, s string, n uint8) {
		partitions := int(n%8) + 1
		states, err := parseCursor(s, partitions)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("parseCursor(%q, %d) = %v, want ErrBadCursor", s, partitions, err)
			}
			return
		}
		if len(states) != partitions {
			t.Fatalf("parseCursor(%q, %d) returned %d states", s, partitions, len(states))
		}
		if s == "" {
			return
		}
		if re := encodeCursor(states); re != s {
			t.Fatalf("parseCursor accepted %q, which re-encodes as %q", s, re)
		}
	})
}

func TestCursorRoundTrip(t *testing.T) {
	states := []partCursor{{node: 0, cursor: "15"}, {node: 2, cursor: ""}, {node: 1, cursor: "7"}}
	enc := encodeCursor(states)
	got, err := parseCursor(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for p := range states {
		if got[p] != states[p] {
			t.Fatalf("partition %d: %+v != %+v", p, got[p], states[p])
		}
	}
	if fresh, err := parseCursor("", 3); err != nil || fresh[0].node != -1 {
		t.Fatalf("empty cursor: %+v, %v", fresh, err)
	}
	for _, bad := range []string{
		"v9~0:0:", "c1~x:0:", "c1~0:9:", "c1~0:0", "c1~9:0:",
		"c1~0:0:5",                   // missing partitions
		"c1~0:0:1,0:1:2,2:0:3",       // repeated partition
		"c1~1:0:,0:0:,2:0:",          // reordered partitions
		"c1~00:0:,1:0:,2:0:",         // non-canonical partition
		"c1~0:+1:,1:0:,2:0:",         // non-canonical node
		"c1~0:0:15,1:2:,2:1:7,2:1:7", // trailing duplicate
	} {
		if _, err := parseCursor(bad, 3); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("parseCursor(%q) = %v, want ErrBadCursor", bad, err)
		}
	}
}
