package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	origin time.Time
	next   atomic.Int64

	// cur and op are the client call in flight and its operation: the
	// benchmark is one closed-loop client, so a handler span's parent is
	// whatever client span is open when the handler runs.
	cur atomic.Int64
	op  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// middleware records one span per request served by next, parented to the
// client span in flight, with the response bytes written, and passes the
// handler time and bytes to done (when set). It runs before net/http
// flushes the end of the response, so a client that has read the response
// also sees its span.
func (t *tracer) middleware(name string, next http.Handler, done func(time.Duration, int64)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, op := t.cur.Load(), t.op.Load()
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		t.record(span{ID: t.newID(), Parent: parent, Op: op, Name: name,
			Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), Bytes: cw.n})
		if done != nil {
			done(end.Sub(start), cw.n)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// children indexes spans by parent.
func (t *tracer) children() map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(-1<<62)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return time.Duration(s.End - s.Start - covered)
}

// layerTime summarises the spans of one name: count, median duration,
// total duration and total self time.
type layerTime struct {
	Name                      string
	Count                     int
	MedianMS, TotalMS, SelfMS float64
}

func (t *tracer) layerTimes() []layerTime {
	kids := t.children()
	acc := make(map[string]*layerTime)
	durs := make(map[string][]float64)
	for _, s := range t.spans {
		lt := acc[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			acc[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += ms(s.dur())
		lt.SelfMS += ms(selfTime(s, kids[s.ID]))
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	out := make([]layerTime, 0, len(acc))
	for name, lt := range acc {
		lt.MedianMS = median(durs[name])
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write saves the spans, one JSON object a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printLayerTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-24s %8s %12s %14s %14s\n", "span", "count", "median_ms", "total_ms", "self_total_ms")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-24s %8d %12.4f %14.2f %14.2f\n", lt.Name, lt.Count, lt.MedianMS, lt.TotalMS, lt.SelfMS)
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the i-th of the n−1 cut points that divide xs into n
// groups, by the exclusive method of Python's statistics.quantiles (the
// method the spreads in README.md are computed with); 0 for an empty
// slice.
func quantile(xs []float64, i, n int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	ld, m := len(s), len(s)+1
	j := min(max(i*m/n, 1), ld-1)
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

func median(xs []float64) float64 { return quantile(xs, 1, 2) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
