package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// fieldOf reads one "Name:   value [unit]" line of a /proc status-style file
// and returns the value.
func fieldOf(path, name string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no field %q", path, name)
}

// procPath names a file of process pid under /proc; pid 0 means this process.
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := fieldOf(procPath(pid, "status"), "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident size, so that peak_rss_mb describes the timed phase and
// not the bulk load before it. It reports whether the kernel allowed it;
// where it does not, the high-water mark covers the process's whole life.
func resetPeakRSS(pid int) bool {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0) == nil
}

// bytesWritten is the byte count the process has passed to write calls
// (/proc/<pid>/io wchar): page-file writes, whether or not they reached a
// device yet.
func bytesWritten(pid int) (int64, error) {
	return fieldOf(procPath(pid, "io"), "wchar")
}

// cpuTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times. It is
// 100 on every Linux configuration Go supports.
const cpuTicksPerSecond = 100

// procCPU is a process's consumed CPU time (user + system) and its context
// switches (voluntary + involuntary, summed over its threads' leader view).
type procCPU struct {
	cpu      time.Duration
	switches int64
}

func readProcCPU(pid int) (procCPU, error) {
	raw, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return procCPU{}, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis, where field 3 (state) follows.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("%s: short stat line", procPath(pid, "stat"))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return procCPU{}, fmt.Errorf("%s: bad cpu times", procPath(pid, "stat"))
	}
	out := procCPU{cpu: time.Duration(utime+stime) * time.Second / cpuTicksPerSecond}
	for _, name := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
		v, err := threadSum(pid, name)
		if err != nil {
			return procCPU{}, err
		}
		out.switches += v
	}
	return out, nil
}

// threadSum adds one /proc/<pid>/task/<tid>/status field over every thread:
// the process-level status file counts only the main thread's switches, and
// a Go program's work runs on the others.
func threadSum(pid int, name string) (int64, error) {
	dir := procPath(pid, "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		// An error here is a thread that exited between the listing and the
		// read; its count went with it.
		if v, err := fieldOf(dir+"/"+t.Name()+"/status", name); err == nil {
			sum += v
		}
	}
	return sum, nil
}

// calibrate times a standard-library-only loop (HMAC-SHA256 of 64 bytes) in
// a few short slices and returns the best slice's iterations per second. It
// is run metadata, not a metric: it tells a reader how quiet the box was.
func calibrate(slices int, each time.Duration) float64 {
	key := []byte("ekbtree-bench-calibration-key-32")
	msg := make([]byte, 64)
	var best float64
	for s := 0; s < slices; s++ {
		start := time.Now()
		n := 0
		for time.Since(start) < each {
			for i := 0; i < 256; i++ {
				m := hmac.New(sha256.New, key)
				m.Write(msg)
				msg[0] = m.Sum(nil)[0]
			}
			n += 256
		}
		if r := float64(n) / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}
