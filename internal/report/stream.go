package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// This file is the streaming/aggregation half of the report package: the
// deterministic percentile and histogram encoders the fleet aggregates
// are built from, and the NDJSON chunk writer the server's result
// streams use. Everything here is order-deterministic: percentiles are
// nearest-rank over a sorted copy, histogram bins are fixed edges, and
// NDJSON frames are single-line encoding/json objects (stable field
// order), so two runs that compute the same values emit the same bytes.

// Percentiles returns the nearest-rank percentile for each q (in
// percent, e.g. 50 for the median) over values. The input is not
// modified. An empty input yields zeros.
func Percentiles(values []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(values) == 0 {
		return out
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	for i, q := range qs {
		k := int(math.Ceil(q/100*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(s) {
			k = len(s) - 1
		}
		out[i] = s[k]
	}
	return out
}

// HistBucket is one histogram bin: observations in [Lo, Hi).
type HistBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

// Hist is a fixed-edge histogram. Edges must be strictly increasing;
// observations outside [edges[0], edges[last]) fall in no bin.
type Hist struct {
	edges  []float64
	counts []int
}

// NewHist builds a histogram over the given bin edges (at least two,
// strictly increasing; panics otherwise — edges are compile-time tables,
// not data).
func NewHist(edges ...float64) *Hist {
	if len(edges) < 2 {
		panic("report: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("report: histogram edges not increasing at %d", i))
		}
	}
	return &Hist{edges: edges, counts: make([]int, len(edges)-1)}
}

// ObserveN adds n samples of value v.
func (h *Hist) ObserveN(v float64, n int) {
	if v < h.edges[0] {
		return
	}
	// Linear scan: edge tables here are a handful of bins, and the scan
	// is branch-predictable; not worth a binary search.
	for i := 1; i < len(h.edges); i++ {
		if v < h.edges[i] {
			h.counts[i-1] += n
			return
		}
	}
}

// Buckets returns the bins in edge order.
func (h *Hist) Buckets() []HistBucket {
	out := make([]HistBucket, len(h.counts))
	for i := range h.counts {
		out[i] = HistBucket{Lo: h.edges[i], Hi: h.edges[i+1], Count: h.counts[i]}
	}
	return out
}

// flusher is the subset of bufio.Writer-style flushing NDJSON drives
// after every frame, so a streaming consumer sees each line as soon as
// it is complete.
type flusher interface{ Flush() error }

// httpFlusher matches http.ResponseWriter's Flush (no error).
type httpFlusher interface{ Flush() }

// NDJSON writes newline-delimited JSON frames: one encoding/json object
// per line, flushed per frame when the underlying writer supports it.
// It is the framing used by the fleet server's result streams; field
// order within a frame is encoding/json's declaration order, so a frame
// built from the same value is byte-identical run to run.
type NDJSON struct {
	w io.Writer
}

// NewNDJSON wraps w.
func NewNDJSON(w io.Writer) *NDJSON { return &NDJSON{w: w} }

// Write marshals v, appends a newline, writes, and flushes.
func (e *NDJSON) Write(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("report: ndjson: %w", err)
	}
	b = append(b, '\n')
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	switch f := e.w.(type) {
	case flusher:
		return f.Flush()
	case httpFlusher:
		f.Flush()
	}
	return nil
}
