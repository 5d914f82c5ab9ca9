package spatial

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func unitSquare() Field {
	return MustField(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1))
}

func TestNewFieldValidation(t *testing.T) {
	tests := []struct {
		name    string
		ring    []Point
		wantErr error
	}{
		{"too few vertices", []Point{Pt(0, 0), Pt(1, 1)}, ErrDegenerateField},
		{"collinear", []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2)}, ErrDegenerateField},
		{"bowtie", []Point{Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2)}, ErrSelfIntersecting},
		{"NaN vertex", []Point{Pt(0, 0), Pt(math.NaN(), 0), Pt(1, 2)}, ErrDegenerateField},
		{"infinite vertex", []Point{Pt(0, 0), Pt(math.Inf(1), 0), Pt(math.Inf(1), 5), Pt(0, 5)}, ErrDegenerateField},
		{"negative infinite vertex", []Point{Pt(0, 0), Pt(2, 0), Pt(1, math.Inf(-1))}, ErrDegenerateField},
		{"valid triangle", []Point{Pt(0, 0), Pt(2, 0), Pt(1, 2)}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewField(tt.ring)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestFieldMetrics(t *testing.T) {
	sq := unitSquare()
	if a := sq.Area(); math.Abs(a-1) > Epsilon {
		t.Errorf("Area = %v, want 1", a)
	}
	if p := sq.Perimeter(); math.Abs(p-4) > Epsilon {
		t.Errorf("Perimeter = %v, want 4", p)
	}
	c := sq.Centroid()
	if !c.Equal(Pt(0.5, 0.5)) {
		t.Errorf("Centroid = %v, want (0.5,0.5)", c)
	}
	// Clockwise ring: negative signed area, same absolute area.
	cw := MustField(Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0))
	if sa := cw.SignedArea(); sa >= 0 {
		t.Errorf("clockwise SignedArea = %v, want negative", sa)
	}
	if math.Abs(cw.Area()-1) > Epsilon {
		t.Errorf("clockwise Area = %v, want 1", cw.Area())
	}
}

func TestContainsPoint(t *testing.T) {
	sq := unitSquare()
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Pt(0.5, 0.5), true},
		{"outside", Pt(2, 2), false},
		{"on edge", Pt(0.5, 0), true},
		{"on vertex", Pt(0, 0), true},
		{"just outside edge", Pt(0.5, -0.001), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sq.ContainsPoint(tt.p); got != tt.want {
				t.Fatalf("ContainsPoint(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestContainsPointConcave(t *testing.T) {
	// A "U" shaped concave polygon.
	u := MustField(
		Pt(0, 0), Pt(5, 0), Pt(5, 5), Pt(4, 5), Pt(4, 1), Pt(1, 1), Pt(1, 5), Pt(0, 5),
	)
	if !u.ContainsPoint(Pt(0.5, 3)) {
		t.Error("left arm point should be inside")
	}
	if u.ContainsPoint(Pt(2.5, 3)) {
		t.Error("notch point should be outside")
	}
	if !u.ContainsPoint(Pt(2.5, 0.5)) {
		t.Error("base point should be inside")
	}
}

func TestContainsField(t *testing.T) {
	big, err := Rect(0, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Rect(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := Rect(8, 8, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !big.ContainsField(small) {
		t.Error("big should contain small")
	}
	if small.ContainsField(big) {
		t.Error("small must not contain big")
	}
	if big.ContainsField(overlap) {
		t.Error("big must not contain a partially overlapping field")
	}
}

func TestIntersectsField(t *testing.T) {
	a, _ := Rect(0, 0, 4, 4)
	b, _ := Rect(2, 2, 6, 6)
	c, _ := Rect(5, 5, 8, 8)
	inner, _ := Rect(1, 1, 2, 2)
	if !a.IntersectsField(b) {
		t.Error("overlapping rects should intersect")
	}
	if a.IntersectsField(c) {
		t.Error("disjoint rects must not intersect")
	}
	if !a.IntersectsField(inner) || !inner.IntersectsField(a) {
		t.Error("containment counts as intersection")
	}
	touch, _ := Rect(4, 0, 8, 4)
	if !a.IntersectsField(touch) {
		t.Error("edge-touching rects should intersect")
	}
}

func TestDistToPointAndField(t *testing.T) {
	sq := unitSquare()
	if d := sq.DistToPoint(Pt(0.5, 0.5)); d != 0 {
		t.Errorf("inside distance = %v, want 0", d)
	}
	if d := sq.DistToPoint(Pt(3, 0.5)); math.Abs(d-2) > 1e-9 {
		t.Errorf("outside distance = %v, want 2", d)
	}
	far, _ := Rect(4, 0, 5, 1)
	if d := sq.DistToField(far); math.Abs(d-3) > 1e-9 {
		t.Errorf("field distance = %v, want 3", d)
	}
	near, _ := Rect(0.5, 0.5, 2, 2)
	if d := sq.DistToField(near); d != 0 {
		t.Errorf("overlapping field distance = %v, want 0", d)
	}
}

func TestFieldEqual(t *testing.T) {
	a := MustField(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1))
	rotated := MustField(Pt(1, 0), Pt(1, 1), Pt(0, 1), Pt(0, 0))
	reversed := MustField(Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0))
	other := MustField(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2))
	tri := MustField(Pt(0, 0), Pt(1, 0), Pt(0, 1))
	if !a.Equal(rotated) {
		t.Error("rotated ring should be equal")
	}
	if !a.Equal(reversed) {
		t.Error("reversed ring should be equal")
	}
	if a.Equal(other) {
		t.Error("different squares must not be equal")
	}
	if a.Equal(tri) {
		t.Error("different vertex counts must not be equal")
	}
}

func TestCircle(t *testing.T) {
	c, err := Circle(Pt(5, 5), 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Area of a 32-gon inscribed in radius 2 is close to pi*4.
	if math.Abs(c.Area()-math.Pi*4) > 0.2 {
		t.Errorf("circle area = %v, want ~%v", c.Area(), math.Pi*4)
	}
	if !c.ContainsPoint(Pt(5, 5)) {
		t.Error("circle must contain its center")
	}
	if _, err := Circle(Pt(0, 0), -1, 8); err == nil {
		t.Error("negative radius should error")
	}
	if _, err := Circle(Pt(0, 0), 1, 2); err == nil {
		t.Error("2-gon circle should error")
	}
}

func TestRectNormalizesCorners(t *testing.T) {
	r, err := Rect(5, 7, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ContainsPoint(Pt(3, 4)) {
		t.Error("normalized rect should contain interior point")
	}
}

// Property: the centroid of any valid triangle lies inside it.
func TestTriangleCentroidInsideProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		ring := []Point{
			Pt(float64(ax), float64(ay)),
			Pt(float64(bx), float64(by)),
			Pt(float64(cx), float64(cy)),
		}
		tri, err := NewField(ring)
		if err != nil {
			return true // degenerate input: skip
		}
		return tri.ContainsPoint(tri.Centroid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DistToPoint is zero iff ContainsPoint.
func TestDistZeroIffContainsProperty(t *testing.T) {
	sq := unitSquare()
	f := func(x, y int8) bool {
		p := Pt(float64(x)/16, float64(y)/16)
		return (sq.DistToPoint(p) == 0) == sq.ContainsPoint(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
