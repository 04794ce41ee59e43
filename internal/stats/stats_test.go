package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	if c.Get("a") != 2 || c.Get("b") != 5 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCountersMerge(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merged x=%d y=%d", a.Get("x"), a.Get("y"))
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Add("zeta", 9)
	s := c.String()
	if !strings.Contains(s, "zeta") || !strings.Contains(s, "9") {
		t.Fatalf("String() = %q", s)
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("Geomean = %g, want 4", got)
	}
}

func TestGeomeanPanics(t *testing.T) {
	for name, xs := range map[string][]float64{"empty": {}, "zero": {1, 0}} {
		xs := xs
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			Geomean(xs)
		})
	}
}

func TestMeanMaxRatio(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean")
	}
	if Max([]float64{2, 9, 4}) != 9 {
		t.Fatal("Max")
	}
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio")
	}
	if Ratio(0, 0) != 0 {
		t.Fatal("Ratio(0,0)")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Fatal("Ratio(1,0)")
	}
}

// Property: geomean lies between min and max of positive inputs.
func TestPropertyGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), 0.0
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
			if xs[i] < lo {
				lo = xs[i]
			}
			if xs[i] > hi {
				hi = xs[i]
			}
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
