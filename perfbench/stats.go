package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between the
// closest ranks); xs is not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowRates cuts per-operation latencies (ms) into consecutive windows
// of size ops and returns each window's rate: its op count over its summed
// latency. Throughput is reported as their median, so one stolen time
// slice slows one window and leaves the figure alone, where total/elapsed
// would absorb it. A trailing partial window is dropped unless it is the
// only one.
func windowRates(latencies []float64, size int) []float64 {
	var rates []float64
	for i := 0; i+size <= len(latencies); i += size {
		rates = append(rates, float64(size)/(sum(latencies[i:i+size])/1e3))
	}
	if len(rates) == 0 && len(latencies) > 0 {
		rates = append(rates, float64(len(latencies))/(sum(latencies)/1e3))
	}
	return rates
}

// peakRSSMiB reads the process's high-water resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// memDelta is the runtime's allocation and collection work between two
// reads: one layer of its own, since every other layer pays into it.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

// since returns the runtime work done after the mark.
func (m *memMark) since() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs: now.Mallocs - m.Mallocs,
		bytes:   now.TotalAlloc - m.TotalAlloc,
		gcs:     now.NumGC - m.NumGC,
	}
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcs += o.gcs
}

// e2e assembles the end-to-end metric set every timed run reports, from
// the per-operation latencies in milliseconds.
func e2e(latencies []float64, opsPerS, setupS float64) (map[string]metric, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	v := map[string]float64{
		"p50_ms":       quantile(latencies, 0.5),
		"p90_ms":       quantile(latencies, 0.9),
		"ops_per_s":    opsPerS,
		"peak_rss_mib": rss,
		"setup_s":      setupS,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, nil
}
