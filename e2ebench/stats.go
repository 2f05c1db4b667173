package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rnnheatmap/internal/server"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; NaN-free, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vmHWM reads the peak resident set size of this process, in MB, from
// /proc/self/status.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// settle collects the garbage a discarded set-up left behind, so every
// set-up and the timed script start from the same heap state.
func settle() { runtime.GC() }

// setUp constructs the workload's server n times, keeping the last, and
// returns how long each construction (through its warm-up) took, in
// seconds: setup_s is their median.
func setUp(n int, build func(i int) (*server.Server, error)) (*server.Server, []float64, error) {
	var srv *server.Server
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		s, err := build(i)
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if srv != nil {
			srv.Close()
		}
		srv = s
		settle()
	}
	return srv, secs, nil
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}
