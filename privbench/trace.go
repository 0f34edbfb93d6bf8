package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans carry names and
// times only, never query text. Every span opened while a private query
// (or ingest batch) is in flight shares that operation's random trace ID.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"` // -1 while open
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced runs pass through the meters.
type recorder struct {
	epoch time.Time
	ids   *rand.Rand

	mu     sync.Mutex
	spans  []span
	trace  uint64
	root   int
	active bool // spans are recorded only while an operation is open
}

func newRecorder(seed int64) *recorder {
	return &recorder{epoch: time.Now(), ids: rand.New(rand.NewSource(seed)), root: -1}
}

// beginRoot opens the root span of one operation, under a fresh trace
// ID unless sameTrace asks to continue the previous operation's (the
// replays of a private query share its ID).
func (r *recorder) beginRoot(name string, sameTrace bool) int {
	r.mu.Lock()
	if !sameTrace {
		r.trace = r.ids.Uint64()
	}
	r.active = true
	r.mu.Unlock()
	id := r.begin(name, -1)
	r.mu.Lock()
	r.root = id
	r.mu.Unlock()
	return id
}

// endRoot closes the operation's root span; nothing is recorded until
// the next root opens.
func (r *recorder) endRoot() {
	r.mu.Lock()
	id := r.root
	r.root, r.active = -1, false
	r.mu.Unlock()
	r.end(id)
}

// currentRoot is the root of the operation in flight: the benchmark's
// client is a single closed loop, so at most one is open at a time.
func (r *recorder) currentRoot() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent, Start: int64(time.Since(r.epoch)), End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = int64(time.Since(r.epoch))
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON writes every span to path, one JSON array.
func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes gives each span's duration minus the part of its interval
// that the union of its children's intervals covers. Children that
// overlap (the router's parallel shard exchanges) are counted once.
// Open spans (End < 0) have no duration and cover nothing.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		out[i] = s.End - s.Start - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curB {
			if iv[1] > curB {
				curB = iv[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanHeader carries the client-side exchange span to the server-side
// handler span in traced runs, so the two can be linked as parent and
// child. It is set on a copy of the request and only when tracing.
const spanHeader = "X-Privbench-Span"

type spanKey struct{}

// wireCount accumulates one HTTP surface's exchange counts and body
// bytes. Request bytes are counted by the client-side meter, response
// bytes by the server-side one (what the handler wrote), so both counts
// are exact whether or not a client reads a body to its end.
type wireCount struct {
	exchanges atomic.Int64
	failed    atomic.Int64
	reqBytes  atomic.Int64
	respBytes atomic.Int64
	dials     atomic.Int64
}

type wireSnap struct{ exchanges, failed, reqBytes, respBytes, dials int64 }

func (w *wireCount) snap() wireSnap {
	return wireSnap{w.exchanges.Load(), w.failed.Load(), w.reqBytes.Load(), w.respBytes.Load(), w.dials.Load()}
}

func (a wireSnap) sub(b wireSnap) wireSnap {
	return wireSnap{a.exchanges - b.exchanges, a.failed - b.failed, a.reqBytes - b.reqBytes, a.respBytes - b.respBytes, a.dials - b.dials}
}

// meter is a client-side http.RoundTripper: it counts exchanges, failed
// exchanges (transport errors and non-2xx replies) and request body
// bytes and, when tracing, records one span per exchange that ends when
// the response body is closed.
type meter struct {
	base  http.RoundTripper
	rec   *recorder
	count *wireCount
	// names maps a request path to its span name; paths not listed are
	// counted in other instead (background probes, document fetches).
	names map[string]string
	other *wireCount
}

// newTransport clones the default transport and counts its dials. Host
// addresses found in alias are dialed at the address they map to.
func newTransport(count *wireCount, alias map[string]string) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		count.dials.Add(1)
		if real, ok := alias[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
	return tr
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	name, known := m.names[req.URL.Path]
	count := m.count
	if !known {
		count = m.other
	}
	count.exchanges.Add(1)
	if req.ContentLength > 0 {
		count.reqBytes.Add(req.ContentLength)
	}
	id := -1
	if m.rec != nil && known {
		parent, ok := req.Context().Value(spanKey{}).(int)
		if !ok {
			parent = m.rec.currentRoot()
		}
		id = m.rec.begin(name, parent)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := m.base.RoundTrip(req)
	if err != nil || resp.StatusCode/100 != 2 {
		count.failed.Add(1)
	}
	if err != nil {
		m.rec.end(id)
		return nil, err
	}
	if id >= 0 {
		resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { m.rec.end(id) }}
	}
	return resp, nil
}

// spanBody ends an exchange span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// serveMeter wraps a server's handler: it counts the response body
// bytes the handler writes and, when tracing, records a span per
// request linked to the client exchange that sent it. The span ID rides
// in the request context, so calls the handler makes through a meter
// (the router's shard exchanges) become its children.
type serveMeter struct {
	h     http.Handler
	rec   *recorder
	count *wireCount
	names map[string]string
	other *wireCount
}

func (m *serveMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, known := m.names[r.URL.Path]
	count := m.count
	if !known {
		count = m.other
	}
	cw := &countingWriter{ResponseWriter: w, count: &count.respBytes}
	if m.rec != nil && known {
		parent := -1
		if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = v
		}
		id := m.rec.begin(name, parent)
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
		defer m.rec.end(id)
	}
	m.h.ServeHTTP(cw, r)
}

// countingWriter counts what the handler writes before passing it on:
// a large body goes straight to the socket, so counting after the write
// could lag behind a client that has already read it.
type countingWriter struct {
	http.ResponseWriter
	count *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.count.Add(int64(len(p)))
	return c.ResponseWriter.Write(p)
}
