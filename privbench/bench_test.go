package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"toppriv/internal/search"
	"toppriv/internal/vsm"
)

func TestSelfTimesCountParallelChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "router", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "a.child", Parent: 1, Start: 12, End: 14},
		{Name: "late", Parent: 0, Start: 90, End: 120}, // clipped to 100
		{Name: "open", Parent: 0, Start: 0, End: -1},   // never closed: ignored
	}
	got := selfTimes(spans)
	// router: 100 − |[10,50] ∪ [60,70] ∪ [90,100]| = 100 − 60.
	want := []int64{40, 18, 30, 10, 2, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 10, true},
		{2000, 99, 20, true},
		{1000, 99, 10, true},
		{999, 98, 19, true}, // p99 has rank 990, leaving 9 beyond
		{300, 95, 15, true},
		{40, 75, 10, true},
		{39, 50, 19, false}, // too few samples for any tail
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got p%g with %d beyond (ok %v), want p%g with %d (ok %v)", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5", got)
	}
	if got := percentile(xs, 91); got != 10 {
		t.Errorf("p91 of 1..10 = %g, want 10", got)
	}
}

func TestWireByteCounting(t *testing.T) {
	var client, server, other wireCount
	rec := newRecorder(1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/search" {
			http.NotFound(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "hello, ")
		io.WriteString(w, "world\n")
	})
	names := map[string]string{"/search": "serve", "/missing": "serve"}
	ts := httptest.NewServer(&serveMeter{h: h, rec: rec, count: &server, names: names, other: &other})
	defer ts.Close()
	tr := newTransport(&client, nil)
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: &meter{base: tr, rec: rec, count: &client, names: map[string]string{"/search": "submit", "/missing": "submit"}, other: &other}}

	root := rec.beginRoot("query", false)
	for _, path := range []string{"/search", "/missing"} {
		resp, err := hc.Post(ts.URL+path, "text/plain", strings.NewReader("seventeen bytes!!"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rec.endRoot()

	c, s := client.snap(), server.snap()
	if c.exchanges != 2 || c.failed != 1 || c.reqBytes != 34 || c.dials != 1 {
		t.Errorf("client counts %+v, want 2 exchanges, 1 failed, 34 request bytes, 1 dial", c)
	}
	notFound := int64(len("404 page not found\n"))
	if s.respBytes != 13+notFound {
		t.Errorf("server wrote %d response bytes, want %d", s.respBytes, 13+notFound)
	}
	// Every exchange span hangs off the root, every serve span off its
	// exchange.
	spans := rec.snapshot()
	if len(spans) != 5 {
		t.Fatalf("%d spans, want root + 2 exchanges + 2 serves", len(spans))
	}
	for i, sp := range spans[1:] {
		switch sp.Name {
		case "submit":
			if sp.Parent != root {
				t.Errorf("span %d: exchange parent %d, want root %d", i+1, sp.Parent, root)
			}
		case "serve":
			if spans[sp.Parent].Name != "submit" {
				t.Errorf("span %d: serve parent is %q", i+1, spans[sp.Parent].Name)
			}
		}
		if sp.End < sp.Start || sp.Trace != spans[0].Trace {
			t.Errorf("span %d: %+v not closed under the root's trace", i+1, sp)
		}
	}
}

func TestStealAccounting(t *testing.T) {
	before, err := parseProcStat("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if before.total != 1000 || before.steal != 35 {
		t.Fatalf("parsed %+v, want total 1000, steal 35", before)
	}
	// Guest time (the last two fields) is inside user time already.
	after, err := parseProcStat("cpu 200 0 100 1500 20 0 10 70 9 9\n")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stealShare(before, after), 35.0/900; math.Abs(got-want) > 1e-15 {
		t.Errorf("steal share %g, want %g", got, want)
	}
	if _, err := parseProcStat("intr 1 2 3\n"); err == nil {
		t.Error("a /proc/stat without a cpu line parsed")
	}
}

func TestMatchHitsAllowsTiesOnly(t *testing.T) {
	want := []vsm.Result{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.5}, {Doc: 3, Score: 0.5}, {Doc: 4, Score: 0.1}}
	ok := []search.SearchHit{{Doc: 1, Score: 0.9}, {Doc: 3, Score: 0.5 + 1e-12}}
	if err := matchHits(ok, want, 2); err != nil {
		t.Errorf("tie broken the other way across rank k: %v", err)
	}
	for _, bad := range [][]search.SearchHit{
		{{Doc: 1, Score: 0.9}, {Doc: 4, Score: 0.5}},        // wrong document
		{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.5 + 1e-6}}, // wrong score
		{{Doc: 1, Score: 0.9}, {Doc: 1, Score: 0.9}},        // duplicate
		{{Doc: 1, Score: 0.9}},                              // short
	} {
		if err := matchHits(bad, want, 2); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}

func TestSplitLog(t *testing.T) {
	log := []search.LoggedQuery{{Query: "a b"}, {Query: "c"}, {Query: "d"}, {Query: "e f"}}
	cycles := [][]string{{"a b", "c"}, {"d", "e f"}}
	ok, err := splitLog(log, cycles, []string{"c", "e f"})
	if err != nil || !ok[0] || !ok[1] {
		t.Fatalf("whole log: %v %v", ok, err)
	}
	ok, err = splitLog(log[:3], cycles, []string{"c", "e f"})
	if err == nil || !ok[0] || ok[1] {
		t.Errorf("cut log: %v %v", ok, err)
	}
	if ok, _ := splitLog(log, cycles, []string{"c", "x"}); ok[1] {
		t.Error("a cycle without its genuine query passed")
	}
}

func TestPlanLaysOutWholeRounds(t *testing.T) {
	w := workload{ingestEach: 16}
	if got := roundOps(w); got != 159 {
		t.Fatalf("roundOps = %d, want 159: 150 queries and an ingest at each of slots 16, 32, …, 144", got)
	}
	if got := roundOps(workload{}); got != roundQueries {
		t.Fatalf("roundOps without ingests = %d, want %d", got, roundQueries)
	}
	ops := plan(w, 5, 1, 3, 9)
	if len(ops) != 3*159 {
		t.Fatalf("%d operations, want %d", len(ops), 3*159)
	}
	batch := 9
	for r := 0; r < 3; r++ {
		round := ops[r*159 : (r+1)*159]
		seen := map[int]bool{}
		for i, o := range round {
			if o.n != 159+r*159+i {
				t.Fatalf("round %d op %d numbered %d", r, i, o.n)
			}
			if o.ingest != ((i+1)%16 == 0) {
				t.Fatalf("round %d op %d: ingest %v out of its slot", r, i, o.ingest)
			}
			if o.ingest {
				if o.idx != batch {
					t.Fatalf("round %d op %d: batch %d, want %d", r, i, o.idx, batch)
				}
				batch++
			} else if seen[o.idx] {
				t.Fatalf("round %d sends query %d twice", r, o.idx)
			} else {
				seen[o.idx] = true
			}
		}
		if len(seen) != roundQueries {
			t.Fatalf("round %d sends %d distinct queries, want %d", r, len(seen), roundQueries)
		}
	}
	again := plan(w, 5, 1, 3, 9)
	other := plan(w, 6, 1, 3, 9)
	sameOrder := true
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatalf("plan is not reproducible at op %d", i)
		}
		sameOrder = sameOrder && ops[i] == other[i]
	}
	if sameOrder {
		t.Error("seeds 5 and 6 give the same order")
	}
	if got := timedRounds(workload{rate: 200}, 10); got != 13 {
		t.Errorf("timedRounds at 200/s for 10 s = %d, want 13", got)
	}
	if got := timedRounds(workload{rate: 1}, 1); got != 1 {
		t.Errorf("timedRounds of a short run = %d, want 1", got)
	}
}
