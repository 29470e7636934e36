package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestPercentiles(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	got := Percentiles(vals, 0, 20, 50, 99, 100)
	want := []float64{1, 1, 3, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("q=%d: got %v want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if vals[0] != 5 {
		t.Error("Percentiles mutated its input")
	}
	if got := Percentiles(nil, 50); got[0] != 0 {
		t.Errorf("empty input: %v", got)
	}
}

func TestHist(t *testing.T) {
	h := NewHist(0, 1, 10, 100)
	for _, v := range []float64{-1, 0, 0.5, 1, 9.99, 10, 50, 100, 1e9} {
		h.ObserveN(v, 1)
	}
	h.ObserveN(5, 3) // a weighted sample counts n times, in and out of range
	h.ObserveN(-2, 2)
	h.ObserveN(200, 4)
	b := h.Buckets()
	wantCounts := []int{2, 5, 2} // [0,1): 0,0.5; [1,10): 1,9.99,5×3; [10,100): 10,50
	for i, w := range wantCounts {
		if b[i].Count != w {
			t.Errorf("bucket %d [%g,%g): %d want %d", i, b[i].Lo, b[i].Hi, b[i].Count, w)
		}
	}
	if under, over := h.Outside(); under != 3 || over != 6 {
		t.Errorf("outside: under=%d over=%d; want 3, 6", under, over)
	}
}

func TestHistBadEdges(t *testing.T) {
	for _, edges := range [][]float64{{1}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edges %v: no panic", edges)
				}
			}()
			NewHist(edges...)
		}()
	}
}

func TestNDJSONFraming(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf) // exercises the flusher path
	enc := NewNDJSON(bw)
	type frame struct {
		Type string `json:"type"`
		N    int    `json:"n"`
	}
	for i := 0; i < 3; i++ {
		if err := enc.Write(frame{Type: "progress", N: i}); err != nil {
			t.Fatal(err)
		}
		// Flushed per frame: the buffered writer must be empty.
		if bw.Buffered() != 0 {
			t.Fatalf("frame %d not flushed", i)
		}
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines: %q", len(lines), buf.String())
	}
	for i, ln := range lines {
		var f frame
		if err := json.Unmarshal([]byte(ln), &f); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if f.N != i || f.Type != "progress" {
			t.Errorf("line %d decoded %+v", i, f)
		}
		if strings.Contains(ln, "\n") {
			t.Errorf("line %d contains embedded newline", i)
		}
	}
}
