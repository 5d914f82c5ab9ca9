package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	spServe        spanKind = iota // frame.ServeConn, one per connection
	spOffer                        // the composition's per-batch offer
	spWALIngest                    // wal.Log.Append of an ingested entity
	spBank                         // engine.Bank.Ingest (detect + condition)
	spWALEmit                      // wal.Log.Append of an emission
	spLogBatch                     // db.Store.LogBatch (eviction, spill)
	spPublish                      // sub.Matcher.Publish of one round
	spQuery                        // db.Store.QueryST, one page
	spClusterOffer                 // cluster.Coordinator.OfferBatch
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"frame.serve", "stcps.offer", "wal.append", "engine.ingest", "wal.append_emit",
	"db.log_batch", "sub.publish", "db.query", "cluster.offer_batch",
}

// span is one recorded interval. Spans of one wire batch share batch;
// parent indexes the enclosing span in the same buffer (-1 for none).
type span struct {
	kind       spanKind
	parent     int32
	batch      uint32
	start, end int64
}

// spanBuf records the spans of one goroutine, in memory. A nil buffer
// records nothing, so the untraced paths can share code with it.
type spanBuf struct {
	spans []span
	stack []int32
	batch uint32
}

func (b *spanBuf) begin(k spanKind) {
	if b == nil {
		return
	}
	parent := int32(-1)
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
	}
	if parent < 0 || k == spOffer || k == spClusterOffer {
		b.batch++
	}
	b.stack = append(b.stack, int32(len(b.spans)))
	b.spans = append(b.spans, span{kind: k, parent: parent, batch: b.batch, start: nanotime()})
}

func (b *spanBuf) end() {
	if b == nil {
		return
	}
	n := len(b.stack) - 1
	b.spans[b.stack[n]].end = nanotime()
	b.stack = b.stack[:n]
}

func (b *spanBuf) reset() {
	b.spans, b.stack, b.batch = b.spans[:0], b.stack[:0], 0
}

// layerTime aggregates the spans of one kind: count, total duration,
// and self time (duration minus the time the kind's direct children
// cover).
type layerTime struct {
	count      int
	total, own int64
}

// aggregate folds a buffer's spans into per-kind totals.
func aggregate(b *spanBuf, out *[numSpanKinds]layerTime) {
	child := make([]int64, len(b.spans))
	for i := range b.spans {
		s := &b.spans[i]
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i := range b.spans {
		s := &b.spans[i]
		d := s.end - s.start
		lt := &out[s.kind]
		lt.count++
		lt.total += d
		lt.own += d - child[i]
	}
}

// writeSpans writes the spans as JSON lines (name, batch, parent,
// start and end in ns since the benchmark started).
func writeSpans(path string, bufs ...*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for g, b := range bufs {
		if b == nil {
			continue
		}
		for i, s := range b.spans {
			fmt.Fprintf(w, `{"g":%d,"id":%d,"name":%q,"batch":%d,"parent":%d,"start":%d,"end":%d}`+"\n",
				g, i, spanNames[s.kind], s.batch, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pubClock remembers when each store sequence number was published to
// subscribers, so a subscriber can time its delivery wait. It is a
// ring: only the most recent publications resolve.
type pubClock struct{ ring []atomic.Int64 }

func newPubClock() *pubClock { return &pubClock{ring: make([]atomic.Int64, 1<<16)} }

func (p *pubClock) mark(seq uint64) {
	if p != nil {
		p.ring[seq&(1<<16-1)].Store(nanotime())
	}
}

func (p *pubClock) at(seq uint64) int64 { return p.ring[seq&(1<<16-1)].Load() }
