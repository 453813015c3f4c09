package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is a reading of the host counters a run is judged against:
// this process's CPU time and the machine's stolen and total CPU time.
type hostSample struct {
	at         time.Time
	proc       time.Duration
	steal, all float64
}

// hostUsage is what the host did between two samples.
type hostUsage struct {
	cores float64 // CPU cores this process kept busy
	steal float64 // share of the machine's CPU time taken by the hypervisor
}

func readHost() hostSample {
	s := hostSample{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// /proc/stat: "cpu user nice system idle iowait irq softirq steal ...".
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		s.all += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

func (s hostSample) since(b hostSample) hostUsage {
	var u hostUsage
	if wall := s.at.Sub(b.at); wall > 0 {
		u.cores = float64(s.proc-b.proc) / float64(wall)
	}
	if d := s.all - b.all; d > 0 {
		u.steal = (s.steal - b.steal) / d
	}
	return u
}
