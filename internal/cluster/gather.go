package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/stcps/stcps/internal/cluster/hlc"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/timemodel"
)

// PageReq asks one node for one page of one partition's instances.
type PageReq struct {
	// Spec is the query; Spec.Cursor is a cursor in the serving
	// node's store sequence space (resume-after semantics) and
	// Spec.Limit caps the page.
	Spec db.QuerySpec
	// Partition restricts the page to instances applied under one
	// partition.
	Partition int
}

// PageResp is one partition page, in apply (= HLC, per the
// single-writer stream guarantee) order.
type PageResp struct {
	Instances []event.Instance
	// Seqs are the serving node's store seqs, parallel to Instances —
	// the pagination coordinates.
	Seqs []uint64
	// Stamps are the HLC stamps recorded at apply time, parallel to
	// Instances.
	Stamps []uint64
	// More reports whether the partition may hold further matches
	// beyond this page.
	More bool
	// Frontier is the serving node's HLC reading at page time, the
	// staleness witness.
	Frontier uint64
}

// Fetcher retrieves one partition page from a node. The in-process
// harness calls LocalPage directly; the daemon fans out over HTTP.
type Fetcher func(node int, req PageReq) (PageResp, error)

// LocalPage serves one partition page from the local store: it walks
// the node's own query pages and keeps the instances the stamp sidecar
// attributes to the requested partition. Instances logged outside the
// cluster path (pre-cluster WAL recovery) fall back to routing by
// their occurrence location with a Gen-derived stamp, so mixed stores
// stay queryable.
func (co *Coordinator) LocalPage(req PageReq) (PageResp, error) {
	if co.hooks.Query == nil {
		return PageResp{}, fmt.Errorf("%w: node has no query hook", ErrConfig)
	}
	limit := req.Spec.Limit
	if limit <= 0 {
		limit = 256
	}
	resp := PageResp{Frontier: uint64(co.clock.Current())}
	cursor := req.Spec.Cursor
	for {
		q := req.Spec
		q.Cursor = cursor
		q.Limit = limit
		res, err := co.hooks.Query(q)
		if err != nil {
			return PageResp{}, err
		}
		for k := range res.Instances {
			seq := res.Seqs[k]
			stamp, part, ok := co.stamps.Lookup(seq)
			if !ok {
				part = co.router.PartitionOf(res.Instances[k].OccLoc())
				stamp = hlc.Pack(res.Instances[k].Gen, 0)
			}
			if part != req.Partition {
				continue
			}
			if len(resp.Instances) >= limit {
				// A matching instance beyond the page bound: stop
				// without consuming it; the follow-up fetch resumes
				// after the last emitted seq.
				resp.More = true
				return resp, nil
			}
			resp.Instances = append(resp.Instances, res.Instances[k])
			resp.Seqs = append(resp.Seqs, seq)
			resp.Stamps = append(resp.Stamps, uint64(stamp))
		}
		if res.NextCursor == "" {
			return resp, nil
		}
		cursor = res.NextCursor
	}
}

// Result is one merged scatter-gather page.
type Result struct {
	// Instances is the merged page, ordered by (stamp, partition,
	// seq) — the cluster-wide total order.
	Instances []event.Instance
	// Stamps are the HLC stamps, parallel to Instances.
	Stamps []hlc.Stamp
	// NextCursor resumes the merge; empty when every partition is
	// exhausted.
	NextCursor string
	// Staleness bounds, in ticks of HLC wall time, how far the
	// laggiest consulted owner's applied frontier trails this
	// gateway's clock — the freshness bound of the page.
	Staleness timemodel.Tick
	// Partitions is the number of partitions consulted.
	Partitions int
}

// partCursor is one partition's pagination state inside a composite
// cursor: the node whose seq space the cursor lives in, and the last
// seq emitted from it.
type partCursor struct {
	node   int
	cursor string
}

// cursorPrefix versions the composite cursor encoding. No semicolon
// anywhere in the cursor: net/url drops query parameters containing
// raw ";", which would silently reset pagination for any HTTP client
// that forgets to escape it.
const cursorPrefix = "c1~"

// encodeCursor renders per-partition states as a composite cursor.
func encodeCursor(states []partCursor) string {
	var sb strings.Builder
	sb.WriteString(cursorPrefix)
	for p, st := range states {
		if p > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d:%d:%s", p, st.node, st.cursor)
	}
	return sb.String()
}

// parseCursor decodes a composite cursor for the given partition
// count.
func parseCursor(s string, partitions int) ([]partCursor, error) {
	states := make([]partCursor, partitions)
	for p := range states {
		states[p] = partCursor{node: -1}
	}
	if s == "" {
		return states, nil
	}
	rest, ok := strings.CutPrefix(s, cursorPrefix)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	for _, part := range strings.Split(rest, ",") {
		fields := strings.SplitN(part, ":", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: entry %q", ErrBadCursor, part)
		}
		p, err := strconv.Atoi(fields[0])
		if err != nil || p < 0 || p >= partitions {
			return nil, fmt.Errorf("%w: partition %q", ErrBadCursor, fields[0])
		}
		node, err := strconv.Atoi(fields[1])
		if err != nil || node < 0 || node >= partitions {
			return nil, fmt.Errorf("%w: node %q", ErrBadCursor, fields[1])
		}
		states[p] = partCursor{node: node, cursor: fields[2]}
	}
	// Only encodeCursor mints cursors, and it writes every partition
	// once, in order, with canonical numbers. Anything else (a missing,
	// repeated or reordered partition, "01" or "+1") is forged or from
	// another cluster shape.
	if encodeCursor(states) != s {
		return nil, fmt.Errorf("%w: non-canonical %q", ErrBadCursor, s)
	}
	return states, nil
}

// gatherStream is one partition's merge state.
type gatherStream struct {
	p         int
	node      int
	buf       PageResp
	pos       int
	exhausted bool
	fetched   bool
}

// head returns the stream's next stamp/seq, valid only when buffered.
func (g *gatherStream) head() (stamp uint64, seq uint64) {
	return g.buf.Stamps[g.pos], g.buf.Seqs[g.pos]
}

func (g *gatherStream) buffered() bool { return g.pos < len(g.buf.Instances) }

// Gather fans spec out to every partition's acting owner and merges
// the pages into one (stamp, partition, seq)-ordered result under a
// single composite cursor. A partition whose owner cannot be fetched
// falls back to the next routable chain member — its replica holds
// every acked record — unless an existing cursor pins the partition to
// a node that is no longer serving it (ErrStaleCursor).
func (co *Coordinator) Gather(spec db.QuerySpec, fetch Fetcher) (Result, error) {
	n := co.router.Partitions()
	states, err := parseCursor(spec.Cursor, n)
	if err != nil {
		return Result{}, err
	}
	limit := spec.Limit
	if limit <= 0 {
		limit = 1 << 30
	}

	streams := make([]*gatherStream, n)
	for p := 0; p < n; p++ {
		streams[p] = &gatherStream{p: p, node: states[p].node}
	}

	// fill fetches the stream's next page when it has no buffered
	// head and is not exhausted.
	minFrontier := uint64(0)
	frontierSeen := false
	fill := func(g *gatherStream, want int) error {
		req := PageReq{Spec: spec, Partition: g.p}
		req.Spec.Cursor = states[g.p].cursor
		req.Spec.Limit = want
		if g.node < 0 {
			// No pinned node yet: the acting owner serves, falling
			// back through the chain on fetch failure.
			var lastErr error
			for _, c := range co.router.Chain(g.p) {
				if !co.m.Routable(c) {
					continue
				}
				resp, err := co.fetchFrom(c, req, fetch)
				if err != nil {
					lastErr = err
					continue
				}
				g.node, g.buf, g.pos, g.fetched = c, resp, 0, true
				g.exhausted = !resp.More
				if !frontierSeen || resp.Frontier < minFrontier {
					minFrontier, frontierSeen = resp.Frontier, true
				}
				return nil
			}
			if lastErr == nil {
				lastErr = ErrNoOwner
			}
			return fmt.Errorf("partition %d: %w", g.p, lastErr)
		}
		// Pinned: the cursor lives in g.node's seq space and cannot
		// move. The pin must still be a serving chain member.
		if !co.m.Routable(g.node) || !co.inChain(g.p, g.node) {
			return fmt.Errorf("%w: partition %d pinned to node %d", ErrStaleCursor, g.p, g.node)
		}
		resp, err := co.fetchFrom(g.node, req, fetch)
		if err != nil {
			return fmt.Errorf("partition %d: %w", g.p, err)
		}
		g.buf, g.pos, g.fetched = resp, 0, true
		g.exhausted = !resp.More
		if !frontierSeen || resp.Frontier < minFrontier {
			minFrontier, frontierSeen = resp.Frontier, true
		}
		return nil
	}

	var out Result
	out.Partitions = n
	for len(out.Instances) < limit {
		// Every stream must expose its head (or be exhausted) before
		// any emission: the merge bound is only safe when no stream
		// could still produce a smaller stamp.
		live := 0
		for _, g := range streams {
			if !g.buffered() && !(g.exhausted && g.fetched) {
				want := limit - len(out.Instances)
				if want < 16 {
					want = 16
				}
				if err := fill(g, want); err != nil {
					return Result{}, err
				}
			}
			if g.buffered() {
				live++
			}
		}
		if live == 0 {
			break
		}
		// Emit the minimum (stamp, partition, seq) head.
		var best *gatherStream
		var bs, bq uint64
		for _, g := range streams {
			if !g.buffered() {
				continue
			}
			s, q := g.head()
			if best == nil || s < bs || (s == bs && (g.p < best.p || (g.p == best.p && q < bq))) {
				best, bs, bq = g, s, q
			}
		}
		out.Instances = append(out.Instances, best.buf.Instances[best.pos])
		out.Stamps = append(out.Stamps, hlc.Stamp(bs))
		states[best.p] = partCursor{node: best.node, cursor: strconv.FormatUint(bq, 10)}
		best.pos++
	}

	more := false
	for _, g := range streams {
		if g.buffered() || !g.exhausted {
			more = true
		}
	}
	if more {
		// Preserve node pins even for partitions that emitted nothing
		// this page, so the next page keeps reading the same seq
		// spaces.
		for _, g := range streams {
			if states[g.p].node < 0 {
				states[g.p].node = g.node
			}
		}
		out.NextCursor = encodeCursor(states)
	}
	if frontierSeen {
		cur := co.clock.Current()
		if lag := cur.Wall() - hlc.Stamp(minFrontier).Wall(); lag > 0 {
			out.Staleness = lag
		}
	}
	return out, nil
}

// inChain reports whether node is a chain member of partition p.
func (co *Coordinator) inChain(p, node int) bool {
	for _, c := range co.router.Chain(p) {
		if c == node {
			return true
		}
	}
	return false
}

// fetchFrom serves a page locally when node is this node, otherwise
// through the fetcher.
func (co *Coordinator) fetchFrom(node int, req PageReq, fetch Fetcher) (PageResp, error) {
	if node == co.cfg.Self {
		return co.LocalPage(req)
	}
	if fetch == nil {
		return PageResp{}, fmt.Errorf("%w: no fetcher for remote node %d", ErrConfig, node)
	}
	return fetch(node, req)
}
