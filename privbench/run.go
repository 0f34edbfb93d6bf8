package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/search"
	"toppriv/internal/vsm"
)

// op is one entry of a run's work list: a private query or an ingest
// batch, by index into the round's queries or the ingest pool. n numbers
// the operation within the run; it seeds the query's obfuscation.
type op struct {
	ingest bool
	idx    int
	n      int
}

// roundQueries is the number of queries in a round, the size of the
// TREC-1/2 ad-hoc topic set the query generator models. Every round
// sends the same queries in a seeded order.
const roundQueries = 150

// roundOps is the number of operations in one round as plan lays it
// out: the round's queries and, with every ingestEach-th operation an
// ingest, the ingest batches that fall among them.
func roundOps(w workload) int {
	n, q := 0, 0
	for q < roundQueries {
		n++
		if w.ingestEach == 0 || n%w.ingestEach != 0 {
			q++
		}
	}
	return n
}

// timedRounds is the number of rounds in the timed list: as many as the
// reference rate fits in the given seconds, at least one.
func timedRounds(w workload, seconds int) int {
	return max(1, int(w.rate*float64(seconds)/float64(roundOps(w))+0.5))
}

// plan lays out the given number of whole rounds. Each round sends every
// query once, in an order drawn from the seed and the round number, with
// every ingestEach-th operation an ingest batch; b0 is the first batch.
func plan(w workload, seed int64, round0, rounds, b0 int) []op {
	ops := make([]op, 0, rounds*roundOps(w))
	for r := round0; r < round0+rounds; r++ {
		order := rand.New(rand.NewSource(seed*7_919 + int64(r))).Perm(roundQueries)
		for slot := 1; len(order) > 0; slot++ {
			if w.ingestEach > 0 && slot%w.ingestEach == 0 {
				ops = append(ops, op{ingest: true, idx: b0})
				b0++
			} else {
				ops = append(ops, op{idx: order[0]})
				order = order[1:]
			}
		}
	}
	for i := range ops {
		ops[i].n = round0*roundOps(w) + i
	}
	return ops
}

func countIngests(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.ingest {
			n++
		}
	}
	return n
}

// querySeed is the obfuscation seed of the n-th operation: the client's
// RNG is re-seeded with it before each query, so a replay of the same
// call with the same seed regenerates the same cycle.
func querySeed(seed int64, n int) int64 { return seed*1_000_003 + int64(n)*7_919 + 17 }

// exec is one executed operation and what the oracles made of it.
type exec struct {
	ingest bool
	timed  bool
	traced bool
	ms     float64
	err    error
	// known marks a failure of the known double-analysis defect (see
	// checkResults); any other failure makes the run incorrect.
	known bool

	// For the result oracle, run after the timed list: the query, its
	// genuine hits and how many documents were acknowledged when it ran.
	query int
	hits  []search.SearchHit
	docs  int
}

// runner executes one run of a workload against one system.
type runner struct {
	w      workload
	seed   int64
	trace  bool
	rec    *recorder
	sys    *system
	log    io.Writer
	client *search.Client
	admin  *search.Client
	rng    *rand.Rand

	queries []corpus.QuerySpec
	pool    []corpus.Document
	priv    *privacyOracle

	execs []exec
	// submitted cycles, in submission order, for the query-log split;
	// cycleExec maps each to the execution that submitted it.
	cycles    [][]string
	genuine   []string
	cycleExec []int
	// ingested holds the acknowledged ingested documents in gid order;
	// ackExec maps each of their gids to its execution.
	ingested []corpus.Document
	ackExec  map[corpus.DocID]int

	layers layerStats
}

// layerStats accumulates the per-query counts of the timed list.
type layerStats struct {
	queries        int     // timed query executions counted below
	cycleLen       float64 // Σ υ
	foldins        float64 // Σ (1 + ghosts tried)
	ghostsTried    float64
	ghostsAccepted float64
	ghostTerms     float64
	client         wireSnap // Σ client→front exchanges and bytes
	front          wireSnap // Σ front server response bytes
	shard          wireSnap // Σ router→shard exchanges and bytes (queries)
	shardS         wireSnap // Σ shard server response bytes (queries)

	docsScored, postings, blocksDecoded float64 // from the replays
	replays                             int

	allocBytes float64 // Σ over untraced timed queries (trace mode)
	gcCycles   uint32
	untraced   []float64 // untraced latencies of the trace-mode pairs
	traced     []float64 // traced latencies of the trace-mode pairs

	journalBytes, journalDocs int64
	ingests                   []float64
}

func newRunner(w workload, seed int64, trace bool, rec *recorder, sys *system, log io.Writer, rounds int) (*runner, error) {
	r := &runner{w: w, seed: seed, trace: trace, rec: rec, sys: sys, log: log,
		rng: rand.New(rand.NewSource(seed)), ackExec: map[corpus.DocID]int{}}
	var err error
	if r.client, r.admin, err = sys.newClient(rec, r.rng); err != nil {
		return nil, err
	}
	// The queries come straight from the generator, unfiltered, with a
	// seed of their own: see workloadSeed.
	if r.queries, err = corpus.Workload(sys.gt, corpus.WorkloadSpec{Seed: workloadSeed, NumQueries: roundQueries}); err != nil {
		return nil, err
	}
	if nb := (1 + rounds) * countIngests(plan(w, seed, 0, 1, 0)); nb > 0 {
		// Fresh documents from the same generative topics: the corpus
		// generator draws documents in sequence, so a longer synthesis
		// from the same seed extends the set-up corpus.
		c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: corpusSeed, NumDocs: w.docs + nb*ingestBatch, NumTopics: numTopics}, sys.an)
		if err != nil {
			return nil, err
		}
		r.pool = c.Docs[w.docs:]
	}
	r.priv = newPrivacyOracle(sys.model.Terms, sys.obf.Params().Eps2)
	return r, nil
}

// run executes one untimed warm-up round and then the timed rounds.
func (r *runner) run(rounds int) {
	warm := plan(r.w, r.seed, 0, 1, 0)
	for _, o := range warm {
		r.do(o, false, false)
		if r.trace && !o.ingest {
			// As in the timed rounds, so that every round fails the
			// same share of its operations.
			r.do(o, false, false)
		}
	}
	for _, o := range plan(r.w, r.seed, 1, rounds, countIngests(warm)) {
		switch {
		case o.ingest:
			r.do(o, true, r.trace)
		case r.trace:
			// Each query runs untraced and traced back to back, in
			// alternating order, so both see the same state and caches.
			// The replays follow the pair.
			first := o.n%2 == 0
			r.do(o, true, !first)
			r.do(o, true, first)
			if cyc := r.client.LastCycle(); cyc != nil {
				r.replay(o, cyc)
			}
		default:
			r.do(o, true, false)
		}
	}
}

func (r *runner) do(o op, timed, traced bool) {
	if o.ingest {
		r.doIngest(o.idx, timed, traced)
	} else {
		r.doQuery(o, timed, traced)
	}
}

func (r *runner) fail(i int, err error) {
	if r.execs[i].err == nil {
		r.execs[i].err = err
		fmt.Fprintf(r.log, "failed operation %d: %v\n", i, err)
	}
}

func (r *runner) doQuery(o op, timed, traced bool) {
	raw := r.queries[o.idx].Text()
	m := r.sys.m
	var degraded uint64
	if r.sys.router != nil {
		degraded = r.sys.router.ClusterHealth().Degraded
	}
	c0, f0, s0, ss0 := m.client.snap(), m.front.snap(), m.shard.snap(), m.shardS.snap()
	measureAlloc := r.trace && timed && !traced
	var ms0 runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&ms0)
	}
	prev := r.client.LastCycle()
	r.rng.Seed(querySeed(r.seed, o.n))
	if traced {
		r.rec.beginRoot("query", false)
	}
	start := time.Now()
	var hits []search.SearchHit
	var err error
	if r.w.batched {
		hits, err = r.client.SearchCycle(context.Background(), raw)
	} else {
		hits, err = r.client.Search(raw)
	}
	ms := float64(time.Since(start)) / 1e6
	if traced {
		r.rec.endRoot()
	}
	var ms1 runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&ms1)
	}

	i := len(r.execs)
	r.execs = append(r.execs, exec{timed: timed, traced: traced, ms: ms,
		query: o.idx, hits: hits, docs: len(r.sys.docs) + len(r.ingested)})
	if err != nil {
		r.fail(i, err)
	}
	cyc := r.client.LastCycle()
	if cyc == nil || cyc == prev {
		r.fail(i, fmt.Errorf("no cycle generated"))
		return
	}
	user := r.sys.an.Analyze(raw)
	r.cycles = append(r.cycles, canonicalAll(cyc.Queries))
	r.genuine = append(r.genuine, canonical(user))
	r.cycleExec = append(r.cycleExec, i)
	if err := r.priv.checkCycle(cyc, user); err != nil {
		r.fail(i, err)
	}
	dc := m.client.snap().sub(c0)
	want := int64(cyc.Len())
	if r.w.batched {
		want = 1
	}
	if dc.exchanges != want || dc.failed != 0 {
		r.fail(i, fmt.Errorf("%d HTTP exchanges (%d failed), want %d", dc.exchanges, dc.failed, want))
	}
	if r.sys.router != nil && r.sys.router.ClusterHealth().Degraded != degraded {
		r.fail(i, fmt.Errorf("degraded response"))
	}
	if !timed {
		return
	}

	l := &r.layers
	if measureAlloc {
		l.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		l.gcCycles += ms1.NumGC - ms0.NumGC
	}
	if r.trace {
		if traced {
			l.traced = append(l.traced, ms)
		} else {
			l.untraced = append(l.untraced, ms)
		}
		if traced {
			return // the pair's other execution counts the cycle
		}
	}
	l.queries++
	l.cycleLen += float64(cyc.Len())
	tried := len(cyc.MaskingTopics) + len(cyc.RejectedTopics)
	l.foldins += float64(1 + tried)
	l.ghostsTried += float64(tried)
	l.ghostsAccepted += float64(len(cyc.MaskingTopics))
	for j, q := range cyc.Queries {
		if j != cyc.UserIndex {
			l.ghostTerms += float64(len(q))
		}
	}
	l.client = addSnap(l.client, dc)
	l.front = addSnap(l.front, m.front.snap().sub(f0))
	l.shard = addSnap(l.shard, m.shard.snap().sub(s0))
	l.shardS = addSnap(l.shardS, m.shardS.snap().sub(ss0))
}

func addSnap(a, b wireSnap) wireSnap {
	return wireSnap{a.exchanges + b.exchanges, a.failed + b.failed, a.reqBytes + b.reqBytes, a.respBytes + b.respBytes, a.dials + b.dials}
}

func canonicalAll(qs [][]string) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = canonical(q)
	}
	return out
}

// replay re-runs, outside the timed query and under its trace ID, the
// layers that run inside the client's single call — analyze, obfuscate,
// fold-in of each member — and the serving backend's in-process batch
// execution in its default mode and exhaustively.
//
// A replay that does not regenerate the cycle, or whose batch fails,
// fails the query's last execution: its per-layer figures would come from
// other work than the timed query's.
func (r *runner) replay(o op, cyc *core.Cycle) {
	i := len(r.execs) - 1
	raw := r.queries[o.idx].Text()
	root := r.rec.beginRoot("replay", true)
	defer r.rec.endRoot()

	id := r.rec.begin("textproc.analyze", root)
	terms := r.sys.an.Analyze(raw)
	r.rec.end(id)

	id = r.rec.begin("core.obfuscate", root)
	again, err := r.sys.obf.Obfuscate(terms, rand.New(rand.NewSource(querySeed(r.seed, o.n))))
	r.rec.end(id)
	if err != nil || !sameCycle(again, cyc) {
		r.fail(i, fmt.Errorf("replay did not regenerate the cycle"))
	}

	rng := rand.New(rand.NewSource(querySeed(r.seed, o.n) + 1))
	for _, q := range cyc.Queries {
		id = r.rec.begin("lda.foldin", root)
		r.sys.inf.PosteriorTerms(q, rng)
		r.rec.end(id)
	}

	reqs := make([]vsm.Request, len(cyc.Queries))
	for j, q := range cyc.Queries {
		reqs[j] = vsm.Request{Query: canonical(q), K: topK}
	}
	l := &r.layers
	for _, mode := range []vsm.ExecMode{vsm.ExecAuto, vsm.ExecExhaustive} {
		name := "vsm.batch"
		if mode == vsm.ExecExhaustive {
			name = "vsm.exhaustive"
		}
		for j := range reqs {
			reqs[j].Mode = mode
		}
		id = r.rec.begin(name, root)
		resps, err := r.sys.back.SearchBatch(context.WithValue(context.Background(), spanKey{}, id), reqs)
		r.rec.end(id)
		if err != nil {
			r.fail(i, fmt.Errorf("replay batch: %w", err))
			continue
		}
		for _, resp := range resps {
			if mode == vsm.ExecExhaustive {
				l.postings += float64(resp.Stats.Postings)
			} else {
				l.docsScored += float64(resp.Stats.DocsScored)
				l.blocksDecoded += float64(resp.Stats.BlocksDecoded)
			}
		}
	}
	l.replays++
}

func sameCycle(a, b *core.Cycle) bool {
	if a == nil || a.UserIndex != b.UserIndex || len(a.Queries) != len(b.Queries) {
		return false
	}
	for i := range a.Queries {
		if canonical(a.Queries[i]) != canonical(b.Queries[i]) {
			return false
		}
	}
	return true
}

func (r *runner) doIngest(b int, timed, traced bool) {
	docs := r.pool[b*ingestBatch : (b+1)*ingestBatch]
	j0 := r.sys.router.ClusterHealth().JournalBytes
	if traced {
		r.rec.beginRoot("ingest", false)
	}
	start := time.Now()
	gids, err := r.admin.AddDocuments(docs)
	ms := float64(time.Since(start)) / 1e6
	if traced {
		r.rec.endRoot()
	}
	i := len(r.execs)
	r.execs = append(r.execs, exec{ingest: true, timed: timed, traced: traced, ms: ms})
	if err != nil {
		r.fail(i, err)
		return
	}
	if len(gids) != len(docs) {
		r.fail(i, fmt.Errorf("%d ids acknowledged for %d documents", len(gids), len(docs)))
		return
	}
	next := corpus.DocID(len(r.sys.docs) + len(r.ingested))
	for j, g := range gids {
		if g != next+corpus.DocID(j) {
			r.fail(i, fmt.Errorf("acknowledged gid %d, want %d", g, next+corpus.DocID(j)))
			return
		}
		r.ackExec[g] = i
	}
	r.ingested = append(r.ingested, docs...)
	if !timed {
		return
	}
	l := &r.layers
	l.ingests = append(l.ingests, ms)
	if j1 := r.sys.router.ClusterHealth().JournalBytes; j1 > j0 {
		l.journalBytes += j1 - j0
		l.journalDocs += int64(len(docs))
	}
}

// finish runs the oracles kept out of the timed list: the result oracle
// on every query, the query-log split, and on a cluster the resolution of
// every acknowledged document and the document count.
func (r *runner) finish() error {
	if err := r.checkResults(); err != nil {
		return err
	}
	ok, err := splitLog(r.sys.front.QueryLog(), r.cycles, r.genuine)
	for c, good := range ok {
		if !good {
			r.fail(r.cycleExec[c], fmt.Errorf("privacy oracle: the query log does not hold cycle %d whole", c))
		}
	}
	if err != nil {
		return err
	}
	if r.sys.router == nil {
		return nil
	}
	all := append(append([]corpus.Document(nil), r.sys.docs...), r.ingested...)
	for g := corpus.DocID(0); int(g) < len(all); g++ {
		doc, found := r.sys.router.Doc(g)
		if found && doc.Text == all[g].Text && doc.Title == all[g].Title {
			continue
		}
		i, ingested := r.ackExec[g]
		if !ingested {
			return fmt.Errorf("placed document %d does not resolve", g)
		}
		r.fail(i, fmt.Errorf("acknowledged document %d does not resolve to what was ingested", g))
	}
	if n := r.sys.router.ComputeStats().NumDocs; n != len(all) {
		return fmt.Errorf("cluster holds %d documents, %d placed and acknowledged", n, len(all))
	}
	return nil
}

// checkResults is the result oracle. It runs after the timed list, so no
// reference index is live while queries are timed, and it builds the
// reference once per ingest point, in the order the queries ran.
//
// The client submits analyzed, stemmed terms as query text and the server
// analyzes that text again. Porter stemming is not idempotent
// ("merchandis" becomes "merchandi"), so for a query whose analyzed terms
// change when analyzed again the engine answers another query than the
// user's, and the private results differ from the unprotected ones. Such
// a query fails; when its hits are exactly the reference's answer to the
// twice-analyzed query, the failure is marked as that known defect, and
// it must then show on every execution of the query, so every run fails
// the same share of its operations. Any other mismatch fails the run.
func (r *runner) checkResults() error {
	twice := make([]string, len(r.queries))
	for q, spec := range r.queries {
		once := canonical(r.sys.an.Analyze(spec.Text()))
		if canonical(r.sys.an.Analyze(once)) != once {
			twice[q] = once
		}
	}
	ref := newReference(r.sys.an, r.sys.docs)
	known := map[int]int{} // query → executions that showed the defect
	runs := map[int]int{}  // query → executions checked
	for i := range r.execs {
		e := &r.execs[i]
		if e.ingest || e.err != nil {
			continue
		}
		if have := len(ref.docs); e.docs > have {
			ref.add(r.ingested[have-len(r.sys.docs) : e.docs-len(r.sys.docs)])
		}
		raw := r.queries[e.query].Text()
		runs[e.query]++
		err := ref.check(raw, e.hits)
		if err == nil {
			continue
		}
		if twice[e.query] != "" && ref.check(twice[e.query], e.hits) == nil {
			known[e.query]++
			e.err, e.known = err, true
			continue
		}
		r.fail(i, err)
	}
	for q, n := range known {
		if n != runs[q] {
			return fmt.Errorf("query %d showed the double-analysis defect on %d of %d executions", q, n, runs[q])
		}
	}
	return nil
}

// counts tallies attempted and failed executions, in all and by kind, and
// the failures of the known double-analysis defect.
func (r *runner) counts() (attempted, failed, known, qAtt, qFail, iAtt, iFail int) {
	for _, e := range r.execs {
		attempted++
		if e.ingest {
			iAtt++
		} else {
			qAtt++
		}
		if e.err != nil {
			failed++
			if e.known {
				known++
			}
			if e.ingest {
				iFail++
			} else {
				qFail++
			}
		}
	}
	return
}

// timedLatencies returns the timed, untraced query latencies and the
// timed ingest latencies, in ms, and the sum of all timed durations.
func (r *runner) timedLatencies() (queries, ingests []float64, totalMS float64) {
	for _, e := range r.execs {
		if !e.timed || e.traced {
			continue
		}
		totalMS += e.ms
		if e.ingest {
			ingests = append(ingests, e.ms)
		} else {
			queries = append(queries, e.ms)
		}
	}
	return
}
