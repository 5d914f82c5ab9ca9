package main

import (
	"math"
	"net/url"
	"testing"
)

// FuzzParseSTPredicates: the predicate parser behind /v1/query and
// /v1/subscribe reads raw client query strings. It must never panic,
// and a region it accepts must have finite corners: a NaN or infinite
// corner parses as a float but answers region queries wrongly.
func FuzzParseSTPredicates(f *testing.F) {
	for _, q := range []string{
		"",
		"event=E.hot&from=0&to=45",
		"x1=0.5&y1=0.5&x2=2&y2=2",
		"event=E.hot&limit=2&cursor=17",
		"x1=3",
		"event=E.hot&x1=0&y1=50&x2=100&y2=100&where=e.temp%3E36&replay=1",
		"from=10",
		"to=5",
		"from=x",
		"x1=0&y1=0&x2=Inf&y2=5",
		"x1=NaN&y1=0&x2=5&y2=5",
		"x1=-1e308&y1=-1e308&x2=1e308&y2=1e308",
		"x1=0&y1=0&x2=0&y2=5",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // the handlers read whatever parsed
		p, err := parseSTPredicates(v)
		if err != nil || p.region == nil {
			return
		}
		fld, ok := p.region.Field()
		if !ok {
			t.Fatalf("%q: region %v is not a field", raw, *p.region)
		}
		for _, pt := range fld.Vertices() {
			if math.IsNaN(pt.X) || math.IsInf(pt.X, 0) || math.IsNaN(pt.Y) || math.IsInf(pt.Y, 0) {
				t.Fatalf("%q: accepted non-finite region %v", raw, fld)
			}
		}
	})
}
