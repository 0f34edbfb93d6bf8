// Command privbench measures private queries end to end and layer by
// layer. One run sets up a workload (corpus, LDA model, serving tier on
// loopback HTTP), serves a fixed seeded list of private queries from a
// single closed-loop client, checks every result against independent
// oracles, and prints its metrics, ending with one JSON line:
//
//	go run . --workload small-seq --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	correct, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "privbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one printed metric; extra ones exist on some workloads only
// and stay out of the JSON line, whose metric set is the same for every
// workload.
type named struct {
	name  string
	value float64
	unit  string
	note  string
	extra bool
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// mainErr runs the benchmark and prints its result. correct is false when
// an oracle failed other than on the known double-analysis defect.
func mainErr() (correct bool, err error) {
	name := flag.String("workload", "", "workload: small-seq, large-batch or cluster-ingest")
	seed := flag.Int64("seed", 1, "seed of every input of the run")
	seconds := flag.Int("seconds", 15, "length of the timed list, in seconds at the reference rate, rounded to whole rounds")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return false, err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return false, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	trace := *traceFlag == 1
	workDir, err := workDirFor()
	if err != nil {
		return false, err
	}
	cpu0, haveCPU := readCPUTimes()
	wall0 := time.Now()

	var rec *recorder
	if trace {
		rec = newRecorder(*seed)
	}
	// Set up several times; the last system serves the run.
	var setupS, trainS, loadS []float64
	var sys *system
	for i := 0; i < setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return false, fmt.Errorf("tear down: %w", err)
			}
			sys = nil
		}
		runtime.GC()
		s, err := setUp(w, *seed, rec, workDir)
		if err != nil {
			return false, fmt.Errorf("set up: %w", err)
		}
		sys = s
		setupS = append(setupS, s.setupS)
		trainS = append(trainS, s.trainS)
		loadS = append(loadS, s.loadS)
	}
	defer sys.close()
	heapMB := liveHeapMB()

	rounds := timedRounds(w, *seconds)
	r, err := newRunner(w, *seed, trace, rec, sys, os.Stderr, rounds)
	if err != nil {
		return false, err
	}
	r.run(rounds)
	check0 := time.Now()
	finishErr := r.finish()
	checkS := time.Since(check0).Seconds()
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "end-of-run oracle:", finishErr)
	}

	out := os.Stdout
	fmt.Fprintf(out, "workload %s seed %d: %d docs, %d topics, LDA on %.0f%% for %d sweeps, ε1=%g ε2=%g, k=%d\n",
		w.name, *seed, w.docs, numTopics, 100*w.trainFrac, trainIters, sys.obf.Params().Eps1, sys.obf.Params().Eps2, topK)
	att, failed, known, qAtt, qFail, iAtt, iFail := r.counts()
	m := sys.m
	httpAtt := m.client.exchanges.Load() + m.shard.exchanges.Load() + m.other.exchanges.Load()
	httpFail := m.client.failed.Load() + m.shard.failed.Load() + m.other.failed.Load()
	fmt.Fprintf(out, "operations: %d rounds of %d queries after a warm-up round; private queries %d attempted %d failed (%d of them the known double-analysis defect); ingest batches %d attempted %d failed; HTTP exchanges %d attempted %d failed (%d of them document checks and probes)\n",
		rounds, roundQueries, qAtt, qFail, known, iAtt, iFail, httpAtt, httpFail, m.other.exchanges.Load())
	fmt.Fprintf(out, "oracles: %d cycles checked, %d unsatisfied; result, log and document checks took %.1f s after the timed list\n", len(r.cycles), r.priv.unsatisfied, checkS)

	var metrics []named
	if trace {
		metrics = layerMetrics(out, r, rec.snapshot(), median(trainS), median(loadS))
		if err := rec.writeJSON(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))); err != nil {
			return false, err
		}
	} else {
		metrics = endToEnd(r, median(setupS), heapMB)
	}
	res := result{Correct: finishErr == nil && failed == known, Attempted: att, Failed: failed, Metrics: map[string]metric{}}
	for _, nm := range metrics {
		v := nm.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line := fmt.Sprintf("metric %-34s %14.4f %s", nm.name, v, nm.unit)
		if nm.note != "" {
			line += "  (" + nm.note + ")"
		}
		if nm.extra {
			line += "  [printed only]"
		} else {
			res.Metrics[nm.name] = metric{Value: v, Unit: nm.unit}
		}
		fmt.Fprintln(out, line)
	}
	if haveCPU {
		if cpu1, ok := readCPUTimes(); ok {
			fmt.Fprintf(out, "steal: %.2f%% of host CPU time over the run (%.1f s wall)\n",
				100*stealShare(cpu0, cpu1), time.Since(wall0).Seconds())
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return res.Correct, nil
}

// endToEnd computes the untraced run's metrics.
func endToEnd(r *runner, setupS, heapMB float64) []named {
	q, ing, totalMS := r.timedLatencies()
	p, beyond, _ := tailPercentile(len(q))
	out := []named{
		{name: "setup_s", value: setupS, unit: "s", note: fmt.Sprintf("median of %d set-ups", setups)},
		{name: "query_p50_ms", value: median(q), unit: "ms"},
		// Printed, not gated: on a host whose steal swings between 1% and
		// 15% the tail follows the steal more than the program.
		{name: "query_tail_ms", value: percentile(q, p), unit: "ms", extra: true, note: fmt.Sprintf("p%g of %d timed queries, %d beyond", p, len(q), beyond)},
		{name: "query_qps", value: float64(len(q)) / (totalMS / 1000), unit: "1/s"},
		{name: "cycle_len", value: r.layers.cycleLen / float64(r.layers.queries), unit: "queries"},
		{name: "heap_mb", value: heapMB, unit: "MiB", note: "live heap after set-up and a forced GC"},
	}
	if len(ing) > 0 {
		ip, ib, _ := tailPercentile(len(ing))
		out = append(out,
			named{name: "ingest_p50_ms", value: median(ing), unit: "ms", extra: true},
			named{name: "ingest_tail_ms", value: percentile(ing, ip), unit: "ms", extra: true,
				note: fmt.Sprintf("p%g of %d ingest batches, %d beyond", ip, len(ing), ib)})
	}
	return out
}

// liveHeapMB is the heap left after forced collections: the least of a
// few readings, so a buffer a background goroutine (the router's health
// probe) happens to hold at one of them does not count.
func liveHeapMB() float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		debug.FreeOSMemory()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc)/(1<<20))
		time.Sleep(10 * time.Millisecond)
	}
	return least
}
