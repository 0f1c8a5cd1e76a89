package main

import (
	"runtime"
	"time"
)

// procSnap is a point-in-time reading of the process counters the
// proc.* metrics are deltas of.
type procSnap struct {
	user, sys  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u, s, _ := rusage()
	return procSnap{user: u, sys: s, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs)}
}

// procDelta is what a phase cost the process.
type procDelta struct {
	User, Sys  time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCPause    time.Duration
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{User: a.user - b.user, Sys: a.sys - b.sys, Mallocs: a.mallocs - b.mallocs,
		AllocBytes: a.allocBytes - b.allocBytes, GCPause: a.gcPause - b.gcPause}
}

// minus takes e out of d: the yardstick's own share of a region it ran
// in.
func (d procDelta) minus(e procDelta) procDelta {
	return procDelta{User: d.User - e.User, Sys: d.Sys - e.Sys, Mallocs: d.Mallocs - e.Mallocs,
		AllocBytes: d.AllocBytes - e.AllocBytes, GCPause: d.GCPause - e.GCPause}
}

func (d *procDelta) add(e procDelta) {
	d.User += e.User
	d.Sys += e.Sys
	d.Mallocs += e.Mallocs
	d.AllocBytes += e.AllocBytes
	d.GCPause += e.GCPause
}

// report fills the proc.* block: the deltas are per completed
// operation of the measured phase, peak RSS is the process's so far
// (each workload runs in its own process, so that is the workload's).
func (d procDelta) report(r *result, ops int64) {
	_, _, rss := rusage()
	r.layer("proc.peak_rss_mb", rss, 0)
	if ops > 0 {
		r.layer("proc.allocs_per_op", float64(d.Mallocs)/float64(ops), ops)
		r.layer("proc.alloc_bytes_per_op", float64(d.AllocBytes)/float64(ops), ops)
	}
	r.layer("proc.gc_pause_ms", float64(d.GCPause)/float64(time.Millisecond), 0)
	r.layer("proc.cpu_user_s", d.User.Seconds(), 0)
	r.layer("proc.cpu_sys_s", d.Sys.Seconds(), 0)
}
