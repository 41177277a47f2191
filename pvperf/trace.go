package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one request share req; parent indexes the span that made
// the call (-1 for a request's root).
type span struct {
	name       string
	start, end int64 // ns since the recorder's origin
	parent     int32
	req        int64
}

// recorder keeps the spans of one client goroutine in memory; it is not
// safe for concurrent use, so each client owns one and they are merged
// when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time, capacity int) *recorder {
	return &recorder{origin: origin, spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name string, parent int32, req int64) int32 {
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.origin)), parent: parent, req: req})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = int64(time.Since(r.origin)) }

// mergeSpans concatenates recorders, rebasing parent indexes.
func mergeSpans(rs []*recorder) []span {
	var out []span
	for _, r := range rs {
		base := int32(len(out))
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// covered is the length of the union of the intervals ivs clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	return total + curE - curS
}

// selfTimes returns, per span name, each span's self time in ns: its
// duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		self := s.end - s.start - covered(s.start, s.end, children[int32(i)])
		out[s.name] = append(out[s.name], float64(self))
	}
	return out
}

// durations returns, per span name, each span's full duration in ns.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start))
	}
	return out
}

// writeSpans writes spans as gzipped CSV (req,name,start_ns,end_ns,parent).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "req,name,start_ns,end_ns,parent")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d\n", s.req, s.name, s.start, s.end, s.parent)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
