package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"toppriv/internal/belief"
	"toppriv/internal/cluster"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// workload is one fixed input make-up. Every run of a workload serves one
// untimed warm-up round and then whole timed rounds of the same
// roundQueries queries (and, on cluster-ingest, one ingest batch in every
// ingestEach operations), so the amount of work is the same in every run
// of one seed and only the timings vary. The rates are about the
// throughput measured on a 2-vCPU VM, so the timed rounds take about
// --seconds there: 15, 9 and 8 rounds at --seconds 15.
type workload struct {
	name       string
	docs       int     // documents in the corpus at set-up
	trainFrac  float64 // share of the corpus LDA is trained on (§V-A sample)
	batched    bool    // one /search/batch per cycle instead of υ /search requests
	shards     int     // 0: single-node live store; >0: router over this many shards
	rate       float64 // reference operations per second, sizing the timed list
	ingestEach int     // one ingest batch per this many operations (0: none)
}

// The corpus and the queries do not depend on --seed. About 30% of the
// generated queries meet the double-analysis defect described at
// checkResults and fail the result oracle; with the same queries in every
// run, every run fails the same share of its operations. The seed draws
// everything else: the LDA training sample and sweeps, every cycle's
// ghosts and the order of the queries in each round, and with it which
// queries run between two ingests.
const (
	corpusSeed   = 1
	workloadSeed = 2
)

// Input make-up shared by every workload.
const (
	numTopics   = 24  // generative topics and LDA K
	trainIters  = 50  // collapsed Gibbs sweeps at set-up
	topK        = 10  // results per query
	ingestBatch = 32  // documents per ingest batch
	placeBatch  = 256 // documents per router Add at set-up
	setups      = 3   // set-ups per run; setup_s is their median
)

var workloads = []workload{
	{name: "small-seq", docs: 2000, trainFrac: 1, rate: 150},
	{name: "large-batch", docs: 20000, trainFrac: 0.1, batched: true, rate: 85},
	{name: "cluster-ingest", docs: 4000, trainFrac: 0.5, batched: true, shards: 3, rate: 85, ingestEach: 16},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// meters holds the counters of every HTTP surface of one system.
type meters struct {
	client wireCount // client → front server (queries and ingests)
	front  wireCount // front server responses
	shard  wireCount // router → shard exchanges for queries and ingests
	shardS wireCount // shard server responses
	other  wireCount // probes and document fetches
}

// system is one set-up: corpus, model, obfuscator and the serving tier,
// listening on loopback.
type system struct {
	w      workload
	an     *textproc.Analyzer
	gt     *corpus.GroundTruth
	docs   []corpus.Document // documents at set-up, in global-ID order
	model  *lda.Model
	inf    *lda.Inferencer
	obf    *core.Obfuscator
	front  *search.Server
	back   vsm.RequestSearcher // the front server's backend, for replays
	url    string
	stores []*segment.Store
	shards []*cluster.Shard
	router *cluster.Router
	m      *meters

	servers    []*loopServer
	transports []*http.Transport
	journalDir string

	setupS, trainS, loadS float64
}

// loopServer is an http.Server on a loopback port.
type loopServer struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &loopServer{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(ls.done)
		ls.srv.Serve(ln)
	}()
	return ls, nil
}

var frontNames = map[string]string{"/search": "search.serve", "/search/batch": "search.serve", "/index": "cluster.add"}
var clientNames = map[string]string{"/search": "search.submit", "/search/batch": "search.submit", "/index": "search.submit"}
var shardClientNames = map[string]string{"/cluster/batch": "cluster.exchange", "/cluster/index": "cluster.ingest_exchange"}
var shardNames = map[string]string{"/cluster/batch": "cluster.shard_serve", "/cluster/index": "segment.add"}

// setUp builds one system; the returned setupS covers
// corpus synthesis, LDA training and index load or shard placement, up
// to the moment the front server can serve its first query.
func setUp(w workload, seed int64, rec *recorder, workDir string) (*system, error) {
	start := time.Now()
	s := &system{w: w, an: textproc.NewAnalyzer(), m: &meters{}}
	c, gt, err := corpus.Synthesize(corpus.GenSpec{Seed: corpusSeed, NumDocs: w.docs, NumTopics: numTopics}, s.an)
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	s.gt = gt
	s.docs = c.Docs

	t0 := time.Now()
	train := c
	if w.trainFrac < 1 {
		if train, err = corpus.Sample(c, corpus.SampleSpec{DocFraction: w.trainFrac, Seed: seed + 3}); err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
	}
	if s.model, _, err = lda.Train(train, lda.TrainSpec{NumTopics: numTopics, Iterations: trainIters, Seed: seed + 2}); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	s.trainS = time.Since(t0).Seconds()
	if s.inf, err = lda.NewInferencer(s.model, lda.InferSpec{}); err != nil {
		return nil, err
	}
	eng, err := belief.NewEngine(s.inf)
	if err != nil {
		return nil, err
	}
	if s.obf, err = core.NewObfuscator(eng, core.DefaultParams()); err != nil {
		return nil, err
	}

	t0 = time.Now()
	if w.shards == 0 {
		err = s.startSingle()
	} else {
		err = s.startCluster(rec, workDir)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.loadS = time.Since(t0).Seconds()
	if s.front, err = search.NewServer(s.back.(vsm.Searcher), nil); err != nil {
		s.close()
		return nil, err
	}
	ls, err := serve(&serveMeter{h: s.front, rec: rec, count: &s.m.front, names: frontNames, other: &s.m.other})
	if err != nil {
		s.close()
		return nil, err
	}
	s.servers = append(s.servers, ls)
	s.url = ls.url
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// startSingle loads the corpus into one live store and compacts it, so
// the segment layout (and with it the work per query) is the same in
// every run of a seed.
func (s *system) startSingle() error {
	st, err := segment.Open(segment.Config{Scoring: vsm.Cosine, Analyzer: s.an, DisableCompaction: true})
	if err != nil {
		return err
	}
	s.stores = append(s.stores, st)
	if _, err := st.Add(s.docs...); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := st.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	s.back = st
	return nil
}

// startCluster starts the shards and the journaling router, places the
// corpus through the router and compacts each shard. Shards run without
// background compaction: its timing would make the segment layout, and
// the work per query, differ between runs of one seed. Ingest during the
// run still seals memtables into new segments.
//
// The router places documents by hashing shard names, so the shards get
// fixed names that the router's transport dials at their loopback ports;
// named by port, the split of the corpus would change from run to run.
func (s *system) startCluster(rec *recorder, workDir string) error {
	urls := make([]string, s.w.shards)
	alias := make(map[string]string, len(urls))
	for i := range urls {
		st, err := segment.Open(segment.Config{Scoring: vsm.Cosine, Analyzer: s.an, DisableCompaction: true})
		if err != nil {
			return err
		}
		s.stores = append(s.stores, st)
		sh := cluster.NewShard(st)
		s.shards = append(s.shards, sh)
		srv, err := search.NewServer(st, nil)
		if err != nil {
			return err
		}
		sh.Mount(srv)
		ls, err := serve(&serveMeter{h: srv, rec: rec, count: &s.m.shardS, names: shardNames, other: &s.m.other})
		if err != nil {
			return err
		}
		s.servers = append(s.servers, ls)
		urls[i] = fmt.Sprintf("http://shard%d", i)
		alias[fmt.Sprintf("shard%d:80", i)] = strings.TrimPrefix(ls.url, "http://")
	}
	dir, err := os.MkdirTemp(workDir, "journal-")
	if err != nil {
		return err
	}
	s.journalDir = dir
	tr := newTransport(&s.m.shard, alias)
	s.transports = append(s.transports, tr)
	hc := &http.Client{Transport: &meter{base: tr, rec: rec, count: &s.m.shard, names: shardClientNames, other: &s.m.other}}
	if s.router, err = cluster.New(cluster.Config{Shards: urls, HTTPClient: hc, Analyzer: s.an, JournalDir: dir}); err != nil {
		return err
	}
	for i := 0; i < len(s.docs); i += placeBatch {
		end := min(i+placeBatch, len(s.docs))
		gids, err := s.router.Add(s.docs[i:end]...)
		if err != nil {
			return fmt.Errorf("place: %w", err)
		}
		for j, g := range gids {
			if int(g) != i+j {
				return fmt.Errorf("place: document %d got gid %d", i+j, g)
			}
		}
	}
	for _, st := range s.stores {
		if err := st.Compact(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	s.back = s.router
	return nil
}

// newClient builds the trusted client over a metered transport.
func (s *system) newClient(rec *recorder, rng *rand.Rand) (*search.Client, *search.Client, error) {
	tr := newTransport(&s.m.client, nil)
	s.transports = append(s.transports, tr)
	hc := &http.Client{Transport: &meter{base: tr, rec: rec, count: &s.m.client, names: clientNames, other: &s.m.other}}
	c, err := search.NewClient(s.url, hc, s.obf, s.an, rng)
	if err != nil {
		return nil, nil, err
	}
	c.K = topK
	return c, search.NewAdminClient(s.url, hc), nil
}

// numSegments counts sealed segments across the serving stores.
func (s *system) numSegments() int {
	n := 0
	for _, st := range s.stores {
		n += st.NumSegments()
	}
	return n
}

// close stops every server, router, shard and store of the system and
// waits for their goroutines.
func (s *system) close() error {
	var errs []error
	for _, ls := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ls.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
			ls.srv.Close()
		}
		cancel()
		<-ls.done
	}
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
	if s.router != nil {
		errs = append(errs, s.router.Close())
	}
	for _, sh := range s.shards {
		errs = append(errs, sh.Close())
	}
	for _, st := range s.stores {
		errs = append(errs, st.Close())
	}
	if s.journalDir != "" {
		errs = append(errs, os.RemoveAll(s.journalDir))
	}
	return errors.Join(errs...)
}

// workDirFor is the directory, inside the working tree, where a run
// keeps its journal and writes its spans.
func workDirFor() (string, error) {
	dir := filepath.Join(".bench_build", "privbench")
	return dir, os.MkdirAll(dir, 0o755)
}
