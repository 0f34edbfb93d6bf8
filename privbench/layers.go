package main

import (
	"fmt"
	"io"
)

// opSpans gathers, for one traced operation, the durations and self
// times of the spans below its root, by span name.
type opSpans struct {
	total  float64              // root duration, µs
	dur    map[string][]float64 // µs
	self   map[string][]float64 // µs
	counts map[string]int
	// slowest is the longest cluster.exchange of the operation, µs.
	slowest float64
}

// groupSpans assigns every closed span to the root it descends from.
func groupSpans(spans []span) map[int]*opSpans {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent] // parents are recorded before children
		}
	}
	ops := map[int]*opSpans{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		root := rootOf[i]
		o := ops[root]
		if o == nil {
			o = &opSpans{dur: map[string][]float64{}, self: map[string][]float64{}, counts: map[string]int{}}
			ops[root] = o
		}
		d := float64(s.End-s.Start) / 1e3
		if root == i {
			o.total = d
			continue
		}
		o.dur[s.Name] = append(o.dur[s.Name], d)
		o.self[s.Name] = append(o.self[s.Name], float64(self[i])/1e3)
		o.counts[s.Name]++
		if s.Name == "cluster.exchange" && d > o.slowest {
			o.slowest = d
		}
	}
	return ops
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics computes the traced run's per-layer metrics and prints
// the breakdown of a private query's blocking path.
func layerMetrics(out io.Writer, r *runner, spans []span, trainS, loadS float64) []named {
	ops := groupSpans(spans)
	// Per-name totals over the operations of each root kind.
	type agg struct {
		n          int
		total      float64
		dur, self  map[string]float64
		count      map[string]int
		slowestSum float64
	}
	newAgg := func() *agg {
		return &agg{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	}
	byRoot := map[string]*agg{"query": newAgg(), "replay": newAgg(), "ingest": newAgg()}
	for root, o := range ops {
		a := byRoot[spans[root].Name]
		if a == nil {
			continue
		}
		a.n++
		a.total += o.total
		a.slowestSum += o.slowest
		for name, ds := range o.dur {
			a.dur[name] += sum(ds)
			a.self[name] += sum(o.self[name])
			a.count[name] += o.counts[name]
		}
	}
	q, rp, in := byRoot["query"], byRoot["replay"], byRoot["ingest"]
	perQ := func(a *agg, x float64) float64 { return x / float64(a.n) }
	perCall := func(a *agg, name string) float64 { return a.dur[name] / float64(a.count[name]) }
	l := &r.layers
	nq := float64(l.queries)
	overhead := median(l.traced) - median(l.untraced)

	ms := []named{
		{name: "textproc.analyze_us", value: perCall(rp, "textproc.analyze"), unit: "us"},
		{name: "lda.train_s", value: trainS, unit: "s", note: fmt.Sprintf("median of %d set-ups", setups)},
		{name: "lda.foldin_us", value: perCall(rp, "lda.foldin"), unit: "us", note: "per PosteriorTerms call on a cycle member"},
		{name: "lda.foldins_per_query", value: l.foldins / nq, unit: "count", note: "1 + ghosts tried"},
		{name: "core.obfuscate_us", value: perCall(rp, "core.obfuscate"), unit: "us"},
		{name: "core.ghost_accept_ratio", value: l.ghostsAccepted / l.ghostsTried, unit: "ratio",
			note: fmt.Sprintf("%.0f accepted of %.0f tried", l.ghostsAccepted, l.ghostsTried)},
		{name: "core.ghost_terms_per_query", value: l.ghostTerms / nq, unit: "count"},
		{name: "search.submit_us", value: perQ(q, q.dur["search.submit"]), unit: "us", note: "Σ client HTTP exchanges per query"},
		{name: "search.serve_us", value: perQ(q, q.dur["search.serve"]), unit: "us", note: "Σ front-server handling per query"},
		{name: "search.requests_per_query", value: float64(l.client.exchanges) / nq, unit: "count"},
		{name: "search.request_bytes_per_query", value: float64(l.client.reqBytes) / nq, unit: "B"},
		{name: "search.response_bytes_per_query", value: float64(l.front.respBytes) / nq, unit: "B"},
		{name: "vsm.batch_us", value: perCall(rp, "vsm.batch"), unit: "us", note: "in-process SearchBatch, default mode, per cycle"},
		{name: "vsm.exhaustive_us", value: perCall(rp, "vsm.exhaustive"), unit: "us", note: "the same with ExecExhaustive"},
		{name: "vsm.docs_scored_per_query", value: l.docsScored / float64(l.replays), unit: "count", note: "Σ over the cycle, default mode"},
		{name: "vsm.postings_per_query", value: l.postings / float64(l.replays), unit: "count", note: "Σ over the cycle, exhaustive"},
		{name: "index.blocks_decoded_per_query", value: l.blocksDecoded / float64(l.replays), unit: "count", note: "Σ over the cycle, default mode"},
		{name: "runtime.alloc_kb_per_query", value: l.allocBytes / 1024 / nq, unit: "KiB", note: "untraced queries, whole process"},
		{name: "runtime.gc_cycles", value: float64(l.gcCycles), unit: "count", note: fmt.Sprintf("during the %d untraced timed queries", len(l.untraced))},
		{name: "trace.overhead_ms", value: overhead, unit: "ms", note: fmt.Sprintf("traced p50 %.4f − untraced p50 %.4f", median(l.traced), median(l.untraced))},
	}
	if r.sys.router == nil {
		ms = append(ms, named{name: "segment.load_s", value: loadS, unit: "s", extra: true, note: "Store.Add of the corpus and a full compaction"})
	} else {
		cq := float64(q.count["cluster.exchange"])
		ms = append(ms,
			named{name: "cluster.place_s", value: loadS, unit: "s", extra: true, note: "shard start, router placement, shard compaction"},
			named{name: "segment.segments", value: float64(r.sys.numSegments()), unit: "count", extra: true, note: "across the shards at the end of the run"},
			named{name: "segment.add_us", value: perCall(in, "segment.add"), unit: "us", extra: true, note: "shard-side ingest handling"},
			named{name: "cluster.route_us", value: perQ(q, q.dur["search.serve"]), unit: "us", extra: true, note: "router handling per query"},
			named{name: "cluster.router_self_us", value: perQ(q, q.self["search.serve"]), unit: "us", extra: true, note: "router handling minus the union of its shard exchanges"},
			named{name: "cluster.exchange_us", value: q.dur["cluster.exchange"] / cq, unit: "us", extra: true, note: "per router→shard exchange"},
			named{name: "cluster.slowest_exchange_us", value: perQ(q, q.slowestSum), unit: "us", extra: true},
			named{name: "cluster.shard_serve_us", value: perCall(q, "cluster.shard_serve"), unit: "us", extra: true},
			named{name: "cluster.add_us", value: perCall(in, "cluster.add"), unit: "us", extra: true, note: "router /index handling, journal included"},
			named{name: "cluster.journal_bytes_per_doc", value: float64(l.journalBytes) / float64(l.journalDocs), unit: "B", extra: true},
			named{name: "cluster.shard_requests_per_query", value: float64(l.shard.exchanges) / nq, unit: "count", extra: true},
			named{name: "cluster.shard_request_bytes_per_query", value: float64(l.shard.reqBytes) / nq, unit: "B", extra: true},
			named{name: "cluster.shard_response_bytes_per_query", value: float64(l.shardS.respBytes) / nq, unit: "B", extra: true},
		)
		if len(l.ingests) > 0 {
			ms = append(ms, named{name: "ingest_p50_ms", value: median(l.ingests), unit: "ms", extra: true, note: "traced"})
		}
	}
	ms = append(ms, named{name: "search.dials_per_query", value: float64(l.client.dials) / nq, unit: "count", extra: true, note: "new client connections"})

	// The blocking path: the client's call runs analyze, obfuscate and
	// the exchanges one after another, so their means add up to the
	// traced query less what no span covers. Only the part of the
	// server's handling inside the client's exchange blocks the query:
	// a handler can still be returning after the client has read its
	// reply and closed the body.
	analyze, obf := perCall(rp, "textproc.analyze"), perCall(rp, "core.obfuscate")
	submit := perQ(q, q.dur["search.submit"])
	submitSelf := perQ(q, q.self["search.submit"])
	onPath := submit - submitSelf
	exchanges := perQ(q, q.dur["search.serve"]) - perQ(q, q.self["search.serve"])
	total := perQ(q, q.total)
	fmt.Fprintf(out, "blocking path of one private query, traced, mean of %d (µs):\n", q.n)
	row := func(name string, v float64, note string) {
		fmt.Fprintf(out, "  %-38s %10.1f  %5.1f%%  %s\n", name, v, 100*v/total, note)
	}
	row("textproc.analyze", analyze, "replayed")
	row("core.obfuscate", obf, fmt.Sprintf("replayed; fold-ins ≈ %.1f × %.1f", l.foldins/nq, perCall(rp, "lda.foldin")))
	row("search.submit self", submitSelf, "client HTTP and loopback")
	if r.sys.router == nil {
		row("search.serve (in the exchange)", onPath, fmt.Sprintf("engine alone, replayed as one batch: %.1f", perCall(rp, "vsm.batch")))
	} else {
		row("cluster.router self (in the exchange)", onPath-exchanges, "router decode, stats, merge, encode")
		row("cluster.exchange (union)", exchanges, fmt.Sprintf("slowest %.1f, shard serve %.1f each", perQ(q, q.slowestSum), perCall(q, "cluster.shard_serve")))
	}
	row("unattributed", total-analyze-obf-submit, "")
	fmt.Fprintf(out, "  %-38s %10.1f\n", "query (traced)", total)
	fmt.Fprintf(out, "  trace.overhead_ms %.4f\n", overhead)
	return ms
}
