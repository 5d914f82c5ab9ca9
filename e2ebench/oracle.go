package main

import (
	"fmt"
	"hash/fnv"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
)

// digest is an order-sensitive FNV-1a digest over a stream of
// instances in their canonical binary encoding, with a count.
type digest struct {
	sum uint64
	n   int
	buf []byte
}

func newDigest() digest { return digest{sum: 14695981039346656037} }

// add folds one instance in.
func (d *digest) add(in *event.Instance) {
	var h uint64
	d.buf, h = instHash(d.buf, in)
	d.mix(h)
}

// mix folds one precomputed instance hash in.
func (d *digest) mix(h uint64) {
	d.sum = (d.sum ^ h) * 1099511628211
	d.n++
}

func (d digest) String() string { return fmt.Sprintf("%016x/%d", d.sum, d.n) }

func (d digest) equal(o digest) bool { return d.sum == o.sum && d.n == o.n }

// encodeInstance is the canonical encoding outputs are compared by: the
// wire codec, whose attribute order is sorted.
func encodeInstance(dst []byte, in *event.Instance) []byte {
	out, err := event.AppendInstanceWire(dst, in)
	if err != nil {
		// Emissions are validated by the engine; an invalid one is a
		// defect the comparison must see, so encode its id instead.
		return append(dst, "invalid:"+in.EntityID()...)
	}
	return out
}

// instHash is the canonical digest of one instance alone.
func instHash(buf []byte, in *event.Instance) ([]byte, uint64) {
	buf = encodeInstance(buf[:0], in)
	h := fnv.New64a()
	h.Write(buf)
	return buf, h.Sum64()
}

// reference is the independent oracle: a plain synchronous engine.Bank
// with no WAL, store or wire, fed the same seed's inputs in the same
// order as the pipeline under test.
type reference struct {
	bank *engine.Bank
	feed *Feed
}

func newReference(w *Workload, seed uint64, cells []point) (*reference, error) {
	feed, err := newFeed(w, seed, cells)
	if err != nil {
		return nil, err
	}
	bank, err := engine.NewBank(engine.Config{Observer: observer, Loc: engineLoc})
	if err != nil {
		return nil, err
	}
	for _, d := range feed.Detectors() {
		spec, err := d.detectSpec()
		if err != nil {
			return nil, err
		}
		if _, err := bank.AddDetector(spec); err != nil {
			return nil, err
		}
	}
	return &reference{bank: bank, feed: feed}, nil
}

// run feeds the next n records and hands every emission, in order, to
// fn together with the index of the record that caused it.
func (r *reference) run(n int, fn func(rec int, in *stcps.Instance)) {
	for i := 0; i < n; i++ {
		rec := r.feed.Next()
		out := r.bank.Ingest(rec.Source(), rec.Entity(), rec.Conf(), rec.Now(), engineLoc)
		for j := range out {
			fn(rec.Index, &out[j])
		}
	}
}

// subFilter is a subscription's predicate evaluated independently of
// the sub package: event equality, region jointness, and a one-term
// numeric Where over one attribute.
type subFilter struct {
	event  string
	region *spatial.Location
	attr   string
	op     string
	value  float64
}

func (f *subFilter) match(in *event.Instance) bool {
	if f.event != "" && in.Event != f.event {
		return false
	}
	if f.region != nil && !spatial.OpJoint.Apply(in.Loc, *f.region) {
		return false
	}
	if f.attr == "" {
		return true
	}
	v, ok := in.Attrs[f.attr]
	if !ok {
		return false
	}
	switch f.op {
	case ">":
		return v > f.value
	case ">=":
		return v >= f.value
	case "<":
		return v < f.value
	case "<=":
		return v <= f.value
	case "==":
		return v == f.value
	}
	return false
}
