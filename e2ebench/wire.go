package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/wireclient"
)

// epoch anchors the benchmark's monotonic nanosecond clock.
var epoch = time.Now()

// nanotime is nanoseconds since epoch (monotonic).
func nanotime() int64 { return int64(time.Since(epoch)) }

// server accepts one producer connection on a loopback listener and
// runs frame.ServeConn over it — the daemon's wire path.
type server struct {
	ln    net.Listener
	done  chan struct{}
	stats frame.ServeStats
	err   error
}

func startServer(cfg frame.ServerConfig, sb *spanBuf) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		conn, err := ln.Accept()
		if err != nil {
			s.err = err
			return
		}
		defer conn.Close()
		sb.begin(spServe)
		s.stats, s.err = frame.ServeConn(conn, cfg)
		sb.end()
	}()
	return s, nil
}

// offerBook times every Offer call on the server goroutine: the
// composition's service time per batch, without frame decoding, acks
// or idle waits. It is read after the server has ended.
type offerBook struct {
	at   []int64 // completion, nanotime
	recs []int
	ns   []int64
}

// wrap returns offer, timed into the book.
func (b *offerBook) wrap(offer func(*frame.Batch) error) func(*frame.Batch) error {
	return func(fb *frame.Batch) error {
		t0 := nanotime()
		err := offer(fb)
		t1 := nanotime()
		b.at, b.recs, b.ns = append(b.at, t1), append(b.recs, fb.Len()), append(b.ns, t1-t0)
		return err
	}
}

// rate is the composition's service rate over [from, to): per part of
// the window, the records of the batches completed in it over the time
// spent inside Offer; the median over up to 10 parts.
func (b *offerBook) rate(from, to int64) float64 {
	n := 0
	for _, at := range b.at {
		if at >= from && at < to {
			n++
		}
	}
	k := max(1, min(10, n/20))
	recs, ns := make([]float64, k), make([]float64, k)
	for i, at := range b.at {
		if at >= from && at < to {
			p := int((at - from) * int64(k) / (to - from))
			recs[p] += float64(b.recs[i])
			ns[p] += float64(b.ns[i])
		}
	}
	var rs []float64
	for p := range recs {
		if ns[p] > 0 {
			rs = append(rs, recs[p]/(ns[p]/1e9))
		}
	}
	return median(rs)
}

// wait closes the listener and waits for the connection loop to end.
func (s *server) wait() error {
	s.ln.Close()
	<-s.done
	if errors.Is(s.err, io.EOF) {
		return nil
	}
	return s.err
}

// ackBook times every record from its send (closed loop) or due (open
// loop) time to the cumulative ack covering it. The producer stamps a
// ring slot per record; the connection's read side, through ackTap,
// resolves slots as acks arrive. Only records stamped inside the
// measurement window are sampled.
type ackBook struct {
	ring []atomic.Int64
	mask uint64

	winFrom, winTo atomic.Int64 // measurement window (nanotime)

	mu    sync.Mutex
	acked uint64  // records acked so far
	lat   *series // window records only, in send order
	first uint64  // send index of the first sample
}

func newAckBook() *ackBook {
	const size = 1 << 17 // > any credit window plus a batch
	b := &ackBook{ring: make([]atomic.Int64, size), mask: size - 1, lat: newSeries(0, 1)}
	b.winFrom.Store(1<<62 - 1)
	return b
}

// stamp records the time record idx counts from.
func (b *ackBook) stamp(idx uint64, t int64) { b.ring[idx&b.mask].Store(t) }

// onAck resolves every record below the cumulative count n.
func (b *ackBook) onAck(n uint64, at int64) {
	from, to := b.winFrom.Load(), b.winTo.Load()
	b.mu.Lock()
	for ; b.acked < n; b.acked++ {
		t := b.ring[b.acked&b.mask].Load()
		if t >= from && t < to {
			if len(b.lat.v) == 0 {
				b.first = b.acked
			}
			b.lat.add(at, float64(at-t)/1e3)
		}
	}
	b.mu.Unlock()
}

// latOf returns the ack latency and ack time of the idx-th record sent,
// if it was sampled. Window records are contiguous, so samples are in
// send order.
func (b *ackBook) latOf(idx uint64) (lat float64, at int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < b.first || idx-b.first >= uint64(len(b.lat.v)) {
		return 0, 0, false
	}
	k := idx - b.first
	return b.lat.v[k], b.lat.from + b.lat.at[k], true
}

// ackedCount returns the number of records acked so far.
func (b *ackBook) ackedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.acked
}

// window sets the measurement window.
func (b *ackBook) window(from, to int64) {
	b.mu.Lock()
	b.lat = newSeries(from, to)
	b.mu.Unlock()
	b.winTo.Store(to)
	b.winFrom.Store(from)
}

// series returns the window samples.
func (b *ackBook) series() *series {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lat
}

// ackTap wraps the client's connection and parses the server's control
// frames as the client's reader consumes them, timing each cumulative
// ack at its arrival. It only observes bytes; the wire client parses
// them itself.
type ackTap struct {
	net.Conn
	book *ackBook
	buf  []byte
}

func (t *ackTap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		now := nanotime()
		t.buf = append(t.buf, p[:n]...)
		off := 0
		for len(t.buf)-off >= frame.HeaderSize {
			ln := int(binary.LittleEndian.Uint32(t.buf[off:]))
			if len(t.buf)-off < frame.HeaderSize+ln {
				break
			}
			payload := t.buf[off+frame.HeaderSize : off+frame.HeaderSize+ln]
			if ln > 0 && payload[0] == frame.MsgAck {
				if v, perr := frame.ParseAck(payload); perr == nil {
					t.book.onAck(v, now)
				}
			}
			off += frame.HeaderSize + ln
		}
		t.buf = t.buf[:copy(t.buf, t.buf[off:])]
	}
	return n, err
}

// dialClient connects a wire client to addr through an ackTap.
func dialClient(addr string, book *ackBook) (*wireclient.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// A fixed credit cap keeps a closed loop's records in flight, and so
	// its ack latency, from following the server's congestion window
	// around; four default batches keep the server busy.
	c, err := wireclient.New(&ackTap{Conn: conn, book: book}, wireclient.Options{DialTimeout: 10 * time.Second, Window: 4 * frame.DefaultBatchRecords})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// produced summarizes one producer run.
type produced struct {
	sent     uint64  // records handed to the client
	inWindow uint64  // records timed inside the window
	late     *series // open loop: send minus due time, µs (window records)
	backlog  uint64  // open loop: due but unacked at the window end
	blocked  int64   // ns spent inside client sends (traced runs)
}

// closedLoop sends records as fast as the credit window admits until
// the window ends, then waits for every ack. Each record is timed from
// its send; records sent during the warm-up are not sampled.
func closedLoop(c *wireclient.Client, feed *Feed, book *ackBook, s *schedule, tick *atomic.Int64, timeSends bool) (produced, error) {
	var p produced
	book.window(s.from, s.to)
	for {
		now := nanotime()
		if now >= s.to {
			break
		}
		rec := feed.Next()
		book.stamp(p.sent, now)
		if err := rec.send(c); err != nil {
			return p, fmt.Errorf("send %d: %w", p.sent, err)
		}
		if timeSends {
			p.blocked += nanotime() - now
		}
		p.sent++
		tick.Store(int64(rec.Index))
		if now >= s.from {
			p.inWindow++
		}
	}
	return p, c.Wait()
}

// openLoop sends records on the schedule's fixed period regardless of
// how fast acks come back, flushing every flushMs milliseconds. Each
// record is timed from its due time. After the window it counts the
// backlog (due but unacked) and waits for every ack.
func openLoop(c *wireclient.Client, feed *Feed, book *ackBook, s *schedule, flushMs int, tick *atomic.Int64, timeSends bool) (produced, error) {
	p := produced{late: newSeries(s.from, s.to)}
	book.window(s.from, s.to)
	every := int64(flushMs) * int64(time.Millisecond)
	for wake := s.start; ; wake += every {
		if d := wake - nanotime(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		now := nanotime()
		if now >= s.to {
			break
		}
		for {
			idx := s.base + int(p.sent)
			due := s.due(idx)
			if due > now || due >= s.to {
				break
			}
			rec := feed.Next()
			book.stamp(p.sent, due)
			t0 := nanotime()
			if err := rec.send(c); err != nil {
				return p, fmt.Errorf("send %d: %w", p.sent, err)
			}
			if timeSends {
				p.blocked += nanotime() - t0
			}
			if due >= s.from {
				p.inWindow++
				p.late.add(t0, float64(t0-due)/1e3)
			}
			p.sent++
			tick.Store(int64(rec.Index))
		}
		if err := c.Flush(); err != nil {
			return p, err
		}
	}
	p.backlog = p.sent - book.ackedCount()
	return p, c.Wait()
}
