package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuTimes reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks. On hosts without /proc both are 0.
func cpuTimes() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, _ := strconv.ParseUint(s, 10, 64)
			// guest and guest_nice (fields 9, 10) are already counted in
			// user and nice.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		break
	}
	return steal, total
}

// stealShare is the share of all CPU time the hypervisor gave to other
// guests between two cpuTimes readings.
func stealShare(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

var calibSink uint64

// calibrate times two fixed loops that use no repository code, in ms: an
// integer loop that stays in registers, and a pointer chase through a
// random cycle over 32 MB, which slows down when other tenants contend
// for caches and memory bandwidth as RR sampling does. Read at the start
// and the end of a run, they tell host slowness apart from program
// variance. The chase buffer is mapped outside the Go heap and unmapped
// again, so it leaves no trace in the process's RSS or GC.
func calibrate() (cpuMS, memMS float64, err error) {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	cpuMS = ms(time.Since(start))

	const n = 8 << 20
	buf, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, 0, fmt.Errorf("calibration buffer: %w", err)
	}
	defer syscall.Munmap(buf)
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[0])), n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := newRNG(1, 1)
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through all slots
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	start = time.Now()
	p := uint32(0)
	for i := 0; i < 500_000; i++ {
		p = next[p]
	}
	calibSink += uint64(p)
	return cpuMS, ms(time.Since(start)), nil
}

// resetPeakRSS resets VmHWM of a process ("self" or a pid) to its current
// RSS, so a later peakRSSMB covers only what happens after the reset.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns VmHWM of a process ("self" or a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTicks = 100

// cpuSeconds returns the user plus system CPU time a process ("self" or a
// pid) has used, summed over its threads, from /proc/<pid>/stat.
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after it
	// start past its closing parenthesis, with field 3 (state) first.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	var ticks uint64
	for _, s := range f[11:13] { // utime and stime, fields 14 and 15
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("CPU time of %s: %w", pid, err)
		}
		ticks += v
	}
	return float64(ticks) / clockTicks, nil
}

// runtimeCounters reads cumulative heap allocation bytes and GC cycles of
// this process.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = s[1].Value.Uint64()
	}
	return allocBytes, gcCycles
}
