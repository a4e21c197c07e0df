package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of the raw samples, exactly: the samples
// are sorted in place and the two order statistics around rank q·(n−1) are
// interpolated linearly. No histogram buckets are involved, so the value is
// as precise as the clock that produced the samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo >= len(samples)-1 {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo] + frac*(samples[lo+1]-samples[lo])
}

// weightedQuantile returns the q-quantile of a population in which each
// value vals[i] occurs weights[i] times: the smallest value whose
// cumulative weight reaches q of the total. vals and weights are reordered
// together.
func weightedQuantile(vals, weights []float64, q float64) float64 {
	sort.Sort(byValue{vals, weights})
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cum := 0.0
	for i, w := range weights {
		if cum += w; cum >= q*total {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}

type byValue struct{ vals, weights []float64 }

func (b byValue) Len() int           { return len(b.vals) }
func (b byValue) Less(i, j int) bool { return b.vals[i] < b.vals[j] }
func (b byValue) Swap(i, j int) {
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
	b.weights[i], b.weights[j] = b.weights[j], b.weights[i]
}

// timeMin runs setup (when non-nil, untimed) then f, k times, and returns
// the fastest f's wall time. On a shared machine the minimum estimates the
// cost without scheduler interference; the first error stops the loop.
func timeMin(k int, setup, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < k; i++ {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// procCPU returns the CPU time a process's threads have used, summed from
// the first field of each /proc/<pid>/task/<tid>/schedstat (nanoseconds,
// unlike the clock-tick utime/stime of /proc/<pid>/stat). Time of threads
// that already exited is not counted; the Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // the thread exited between the listing and the read
			}
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("perfbench: empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: schedstat: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// resetPeakRSS restarts this process's VmHWM at its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/%d/status", pid)
}
