package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// scoreTol is the score agreement the result oracle demands.
const scoreTol = 1e-9

// reference is the result oracle: an independent index.Build over every
// document the serving tier has acknowledged, in global-ID order,
// searched exhaustively. It keeps the analyzed corpus and grows it the
// way corpus.Build builds one, so the rebuild at each ingest point
// analyzes only the new documents.
type reference struct {
	an    *textproc.Analyzer
	vocab *textproc.Vocab
	docs  []corpus.Document
	bags  [][]textproc.TermID
	eng   *vsm.Engine
}

func newReference(an *textproc.Analyzer, docs []corpus.Document) *reference {
	r := &reference{an: an, vocab: textproc.NewVocab()}
	r.add(docs)
	return r
}

// add analyzes documents into the reference corpus, assigning the next
// dense IDs — the global IDs the serving tier acknowledged them under.
func (r *reference) add(docs []corpus.Document) {
	for _, d := range docs {
		terms := r.an.Analyze(d.Text)
		bag := make([]textproc.TermID, len(terms))
		for j, t := range terms {
			bag[j] = r.vocab.Add(t)
		}
		r.vocab.ObserveDoc(bag)
		r.docs = append(r.docs, corpus.Document{ID: corpus.DocID(len(r.docs)), Title: d.Title, Text: d.Text})
		r.bags = append(r.bags, bag)
	}
	r.eng = nil
}

func (r *reference) engine() (*vsm.Engine, error) {
	if r.eng != nil {
		return r.eng, nil
	}
	idx, err := index.Build(&corpus.Corpus{Docs: r.docs, Vocab: r.vocab, Bags: r.bags})
	if err != nil {
		return nil, err
	}
	eng, err := vsm.NewEngine(idx, r.an, vsm.Cosine)
	if err != nil {
		return nil, err
	}
	eng.SetExecMode(vsm.ExecExhaustive)
	r.eng = eng
	return eng, nil
}

// check compares a private query's genuine hits with the unprotected
// answer to the raw query on the reference.
func (r *reference) check(raw string, got []search.SearchHit) error {
	eng, err := r.engine()
	if err != nil {
		return err
	}
	resp, err := eng.SearchRequest(context.Background(), vsm.Request{Query: raw, K: topK + 32, Mode: vsm.ExecExhaustive})
	if err != nil {
		return err
	}
	return matchHits(got, resp.Hits, topK)
}

// matchHits demands the top k of want, rank by rank within scoreTol,
// and that every returned document is one the reference scores the same
// within scoreTol. Documents whose scores tie within the tolerance may
// appear in either order, and a tie across the k-th rank may be broken
// either way; want must extend past k to see such ties.
func matchHits(got []search.SearchHit, want []vsm.Result, k int) error {
	n := min(k, len(want))
	if len(got) != n {
		return fmt.Errorf("result oracle: %d hits, reference has %d", len(got), n)
	}
	ref := make(map[corpus.DocID]float64, len(want))
	for _, h := range want {
		ref[h.Doc] = h.Score
	}
	seen := make(map[corpus.DocID]bool, n)
	for j, h := range got {
		if math.Abs(h.Score-want[j].Score) > scoreTol {
			return fmt.Errorf("result oracle: rank %d score %.12f, reference %.12f", j, h.Score, want[j].Score)
		}
		rs, ok := ref[h.Doc]
		if !ok || math.Abs(rs-h.Score) > scoreTol || seen[h.Doc] {
			return fmt.Errorf("result oracle: rank %d document %d is not the reference's", j, h.Doc)
		}
		seen[h.Doc] = true
	}
	return nil
}

// canonical is a query as the client submits it: terms sorted, joined
// by single spaces.
func canonical(terms []string) string {
	s := append([]string(nil), terms...)
	sort.Strings(s)
	return strings.Join(s, " ")
}

// privacyOracle checks each cycle apart from the obfuscator's own
// bookkeeping, and the server's query log against the cycles submitted.
type privacyOracle struct {
	vocab       map[string]bool
	eps2        float64
	unsatisfied int
}

func newPrivacyOracle(terms []string, eps2 float64) *privacyOracle {
	v := make(map[string]bool, len(terms))
	for _, t := range terms {
		v[t] = true
	}
	return &privacyOracle{vocab: v, eps2: eps2}
}

// checkCycle verifies one cycle generated for the analyzed user query.
func (p *privacyOracle) checkCycle(c *core.Cycle, user []string) error {
	if c.UserIndex < 0 || c.UserIndex >= len(c.Queries) {
		return fmt.Errorf("privacy oracle: user index %d outside a cycle of %d", c.UserIndex, len(c.Queries))
	}
	if canonical(c.Queries[c.UserIndex]) != canonical(user) {
		return fmt.Errorf("privacy oracle: the genuine member is not the user query")
	}
	for i, q := range c.Queries {
		if i == c.UserIndex {
			continue
		}
		for _, t := range q {
			if !p.vocab[t] {
				return fmt.Errorf("privacy oracle: ghost term outside the model vocabulary")
			}
		}
	}
	exposure := 0.0
	for i, t := range c.Intention {
		if t < 0 || t >= len(c.Boost) {
			return fmt.Errorf("privacy oracle: intention topic %d out of range", t)
		}
		if i == 0 || c.Boost[t] > exposure {
			exposure = c.Boost[t]
		}
	}
	if exposure != c.Exposure {
		return fmt.Errorf("privacy oracle: max boost over the intention %.17g, cycle reports exposure %.17g", exposure, c.Exposure)
	}
	if c.Satisfied && c.Exposure > p.eps2 {
		return fmt.Errorf("privacy oracle: satisfied cycle with exposure %g > ε2 = %g", c.Exposure, p.eps2)
	}
	if !c.Satisfied {
		p.unsatisfied++
	}
	return nil
}

// splitLog walks the query log in order against the cycles submitted.
// It returns, for each cycle, whether the log holds exactly its members
// at its place, the genuine member verbatim, and an error when the log
// holds more or fewer entries than the cycles account for.
func splitLog(log []search.LoggedQuery, cycles [][]string, genuine []string) ([]bool, error) {
	ok := make([]bool, len(cycles))
	pos := 0
	for c, members := range cycles {
		ok[c] = pos+len(members) <= len(log)
		found := false
		for i, m := range members {
			if !ok[c] {
				break
			}
			q := log[pos+i].Query
			if q != m {
				ok[c] = false
			}
			if q == genuine[c] {
				found = true
			}
		}
		ok[c] = ok[c] && found
		pos += len(members)
	}
	if pos != len(log) {
		return ok, fmt.Errorf("privacy oracle: query log holds %d entries, the cycles submitted %d", len(log), pos)
	}
	return ok, nil
}
