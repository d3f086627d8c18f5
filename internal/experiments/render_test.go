package experiments

import (
	"strings"
	"testing"
)

func TestUnitRendering(t *testing.T) {
	cases := map[int64]string{
		42:            "42ns",
		4_200:         "4.20us",
		4_200_000:     "4.20ms",
		4_200_000_000: "4.20s",
	}
	for in, want := range cases {
		if got := nanos(in); got != want {
			t.Errorf("nanos(%d) = %q, want %q", in, got, want)
		}
	}
	if got := opRate(2_500_000); got != "2.5 M op/s" {
		t.Errorf("opRate = %q", got)
	}
	if got := opRate(2_500); got != "2.5 K op/s" {
		t.Errorf("opRate = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := &table{Title: "T", Header: []string{"a", "bbbb"}}
	tb.Add("xxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	h2 := strings.Index(lines[1], "bbbb")
	r2 := strings.Index(lines[3], "y")
	if h2 != r2 {
		t.Errorf("column 2 misaligned (%d vs %d):\n%s", h2, r2, out)
	}
}

func TestRenderFigure(t *testing.T) {
	s1 := &Series{Name: "sys1"}
	s1.Add(8, 1.5)
	s1.Add(64, 3.0)
	out := RenderFigure("fig", "size", []float64{8, 64}, []*Series{s1},
		func(v float64) string { return nanos(int64(v * 1000)) })
	if !strings.Contains(out, "sys1") || !strings.Contains(out, "64") {
		t.Errorf("figure missing content:\n%s", out)
	}
}
