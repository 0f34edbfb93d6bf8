package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile is the nearest-rank percentile p (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(n int, p float64) int {
	// The tolerance keeps float error from pushing an exact rank up
	// (99.9/100 × 10000 is 9990.000000000002).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles the tail metric may report, highest
// first. It has no p99.5: at 2,000 queries that leaves exactly 10
// samples beyond, where p99 leaves 20 and reads far steadier.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75}

// tailPercentile picks the highest percentile on the ladder that has at
// least 10 samples beyond its nearest rank, and returns it with the
// number of samples beyond. With fewer than 40 samples no percentile
// qualifies as a tail and the median is returned (ok = false).
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - nearestRank(n, p); b >= 10 {
			return p, b, true
		}
	}
	return 50, n - nearestRank(n, 50), false
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// counted inside user and nice, so it is left out of the total.
func parseProcStat(s string) (cpuTimes, error) {
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc/stat: short cpu line %q", line)
		}
		var t cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc/stat: field %d: %v", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

// stealShare is the fraction of all CPU time between two readings that
// the host charged as steal.
func stealShare(before, after cpuTimes) float64 {
	dt := after.total - before.total
	if after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(dt)
}

// readCPUTimes reads /proc/stat; ok is false where it is unavailable.
func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	t, err := parseProcStat(string(b))
	return t, err == nil
}
