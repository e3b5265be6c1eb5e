package main

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/metrics"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
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

// Latency histogram geometry, mirrored from internal/metrics: bucket b holds
// samples up to histMin·growth^b. The benchmark recomputes the edges with
// the same float expression so CumulativeLE sees them exactly.
const (
	histMin     = float64(time.Microsecond)
	histGrowth  = 1.1
	histBuckets = 400
)

func bucketUpper(b int) time.Duration {
	if b == 0 {
		return time.Duration(histMin)
	}
	return time.Duration(histMin * math.Pow(histGrowth, float64(b)))
}

// histQuantile interpolates the q-quantile linearly inside the containing
// bucket, reading the histogram only through CumulativeLE. Histogram.Quantile
// returns the bucket's upper edge, so a median near an edge jumps by a whole
// bucket (10%) between otherwise identical runs; interpolation removes that.
func histQuantile(h *metrics.Histogram, q float64) time.Duration {
	return cumQuantile(h.CumulativeLE, h.Count(), q, h.Min(), h.Max())
}

// deltaQuantile is the q-quantile of the samples a cumulative histogram
// gained from snapshot a to snapshot b.
func deltaQuantile(a, b *metrics.Histogram, q float64) time.Duration {
	cum := func(d time.Duration) uint64 { return b.CumulativeLE(d) - a.CumulativeLE(d) }
	return cumQuantile(cum, b.Count()-a.Count(), q, 0, b.Max())
}

// cumQuantile interpolates the q-quantile of n samples whose count at or
// below each bucket's upper edge is cum, inside [lo, hi].
func cumQuantile(cum func(time.Duration) uint64, n uint64, q float64, lo, hi time.Duration) time.Duration {
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var prev uint64
	for b := 0; b < histBuckets; b++ {
		c := cum(bucketUpper(b))
		if float64(c) >= target && c > prev {
			from := time.Duration(0)
			if b > 0 {
				from = bucketUpper(b - 1)
			}
			to := bucketUpper(b)
			from, to = max(from, lo), min(to, hi)
			frac := (target - float64(prev)) / float64(c-prev)
			return from + time.Duration(frac*float64(to-from))
		}
		prev = c
	}
	return hi
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU is the user+system CPU time this process has used so far, to the
// nanosecond (getrusage counts in whole scheduler ticks on some kernels).
func selfCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU reads another process's user+system CPU time from
// /proc/<pid>/stat. Agents are reaped asynchronously, so RUSAGE_CHILDREN
// undercounts at random; reading each live agent directly does not.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being the 12th and
	// 13th of them.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// memSample is the slice of runtime.MemStats the benchmark reads.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64 // GCCPUFraction
}

func readMem() memSample {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return memSample{totalAlloc: m.TotalAlloc, numGC: m.NumGC, gcCPU: m.GCCPUFraction}
}

// timeOp reports the median per-call cost of fn over reps rounds of n calls.
func timeOp(reps, n int, fn func()) time.Duration {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

// setupTimer times a workload's set-up in blocks of back-to-back builds.
// A single build takes well under a millisecond on the in-process backends,
// too short to time steadily; a block is long enough. Each block is stated
// at the reference speed by the refKernel run right before it, like the
// simulator's rates, and setup_s is the median block's time per build.
type setupTimer struct {
	perBuild []float64 // seconds per build, one per block
}

// block times n builds; each build reports the part of its time that is
// set-up (a dist build excludes tearing its fleet down again).
func (s *setupTimer) block(n int, build func() (time.Duration, error)) error {
	k := refKernel()
	var took time.Duration
	for i := 0; i < n; i++ {
		d, err := build()
		if err != nil {
			return err
		}
		took += d
	}
	s.perBuild = append(s.perBuild, took.Seconds()/float64(n)*float64(refNominal)/float64(k))
	return nil
}

// seconds is the median block's set-up time per build.
func (s *setupTimer) seconds() float64 { return median(s.perBuild) }

// stopwatch returns how long fn took.
func stopwatch(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}
