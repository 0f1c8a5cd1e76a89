package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// This file is the yardstick: a fixed piece of work of the benchmark's
// own — none of the repository's code runs in it — that is timed right
// before and right after everything the benchmark times, so that a
// timing can be stated at ONE host speed instead of at whatever speed
// the host had that minute.
//
// Why: the sandbox is a two-vCPU microVM on a shared host whose cores
// alternate, for minutes at a time, between a base and a boosted clock
// about 25 % apart, with shorter episodes in which system calls cost up
// to twice as much. Every wall-clock figure moves with it, whatever the
// program under test does: ten runs of one binary spread 10-25 % of
// their median, and a first refusal of this benchmark was for exactly
// that. Measured against an interleaved yardstick ten runs spread
// 2-14 %, most under 10 %, in an hour when the raw figures spread 11-18 %
// (README, "Steadiness").
//
// How: a yardstick sample is a blend of four kernels, mixed per
// workload to resemble its diet:
//
//   - taskRounds: handoffs between two goroutines over unbuffered
//     channels, inserts, lookups and deletes on a map, and sorting — the
//     Go scheduler, hashing, branches that do not predict: the checker's
//     diet (a modelled step is a handoff). The host has a state, minutes
//     long, in which such code runs 25-30 % slower while a plain loop
//     runs 2 % slower; the checker follows this kernel one for one
//     (slope 1.01, correlation 0.8 over 1400 alternating samples) and the
//     next kernel not at all.
//   - cpuRounds: a dependent chain of shifts and xors, and dependent
//     random reads over a table larger than the caches — clock speed
//     and memory latency: the loops of the vault's checksums and copies.
//
//     Neither allocates (a kernel that allocated would start garbage
//     collections of the program's heap inside the sample and read that
//     heap's size).
//   - sysOps: create, write, fsync, link, unlink, open, read, directory
//     fsync on the store's own file system, through package os — the
//     mail store's diet.
//   - echoTrips: 64-byte round trips on a loopback TCP connection to an
//     echo goroutine — the protocol servers' diet.
//
// A timing t measured between two samples y0, y1 of a yardstick whose
// reference reading is `nominal` is reported as t · nominal / mean(y0,
// y1): the time the work would have taken had the host run the
// yardstick at its reference speed throughout. Rates are scaled the
// other way. The reference readings are constants (sizes.go), so the
// scale is the same for every revision of the repository measured with
// this benchmark; the run prints the observed host speed
// (bench.host_speed) and the raw figures beside the normalised ones.

// yardBlend is how much of each kernel one sample runs.
type yardBlend struct {
	taskRounds int
	cpuRounds  int
	sysOps     int
	echoTrips  int
}

// Reference readings of the kernels: what one unit takes on this
// sandbox at its base clock (bench --yard prints the host's own). They
// fix the scale of every normalised timing; changing one re-bases every
// number the benchmark has ever produced.
const (
	yardTaskTrips    = 2400 // goroutine round trips per task round
	yardTaskMapOps   = 6000 // map insert+lookup(+delete) steps per task round
	yardTaskMapKeys  = 4096
	yardTaskSortLen  = 4096     // ints sorted once per task round
	yardCPUSteps     = 40000    // shift-xor steps per round
	yardCPUReads     = 400      // dependent table reads per round
	yardCPUTable     = 32 << 20 // bytes
	nominalTaskRound = 1350000 * time.Nanosecond
	nominalCPURound  = 150000 * time.Nanosecond
	nominalSysOp     = 17500 * time.Nanosecond
	nominalEchoTrip  = 5200 * time.Nanosecond
	yardSysBodyBytes = 2048
)

func (b yardBlend) nominal() time.Duration {
	return time.Duration(b.taskRounds)*nominalTaskRound + time.Duration(b.cpuRounds)*nominalCPURound +
		time.Duration(b.sysOps)*nominalSysOp + time.Duration(b.echoTrips)*nominalEchoTrip
}

// yard is one workload's yardstick.
type yard struct {
	blend yardBlend
	// The task kernel's partner goroutine and its working set.
	ping, pong chan int
	taskMap    map[uint64]uint64
	sortSrc    []int
	sortBuf    []int
	dir        string // sysOps work here
	body       []byte
	echo       net.Conn
	echoLn     net.Listener
	echoBuf    []byte

	last    time.Duration // the latest sample
	lastAt  time.Time     // when it ended
	samples []time.Duration
	// own is what the samples themselves cost the process, so that a
	// region's proc.* figures can be stated without them.
	own procDelta
}

// freshFor is how long a sample stands in for "right before": a sample
// that ended this recently is reused as the next bracket's opening one.
const freshFor = 2 * time.Millisecond

// newYard prepares the kernels the blend uses. dir is needed only with
// sysOps; it must be on the file system the stores live on.
func newYard(blend yardBlend, dir string) (*yard, error) {
	y := &yard{blend: blend}
	if blend.taskRounds > 0 {
		y.ping, y.pong = make(chan int), make(chan int)
		go func() {
			for v := range y.ping {
				y.pong <- v
			}
		}()
		y.taskMap = make(map[uint64]uint64, 2*yardTaskMapKeys)
		y.sortSrc, y.sortBuf = make([]int, yardTaskSortLen), make([]int, yardTaskSortLen)
		x := uint64(99)
		for i := range y.sortSrc {
			x = x*6364136223846793005 + 1442695040888963407
			y.sortSrc[i] = int(x >> 40)
		}
	}
	if blend.cpuRounds > 0 && yardTable == nil {
		yardTable = make([]byte, yardCPUTable)
		for i := range yardTable {
			yardTable[i] = byte(i >> 12)
		}
	}
	if blend.sysOps > 0 {
		y.dir = filepath.Join(dir, "yardstick")
		for _, d := range []string{"spool", "box"} {
			if err := os.MkdirAll(filepath.Join(y.dir, d), 0o755); err != nil {
				return nil, err
			}
		}
		y.body = make([]byte, yardSysBodyBytes)
	}
	if blend.echoTrips > 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		y.echoLn = ln
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			b := make([]byte, 256)
			for {
				n, err := c.Read(b)
				if err != nil {
					return
				}
				if _, err := c.Write(b[:n]); err != nil {
					return
				}
			}
		}()
		if y.echo, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			ln.Close()
			return nil, err
		}
		y.echoBuf = make([]byte, 64)
	}
	return y, nil
}

func (y *yard) close() {
	if y == nil {
		return
	}
	if y.ping != nil {
		close(y.ping)
	}
	if y.echo != nil {
		y.echo.Close()
		y.echoLn.Close()
	}
	if y.dir != "" {
		os.RemoveAll(y.dir)
	}
}

// yardTable is the compute kernel's table, allocated when a blend first
// needs it: bytes, so the collector never scans it.
var yardTable []byte

// yardSink keeps the kernel's result alive.
var yardSink uint64

// task runs the task kernel: per round, a burst of goroutine handoffs,
// a burst of map operations over a fixed key range (the map never
// grows), one sort of a fixed permutation. On one P a handoff is a
// goroutine switch inside the Go scheduler, with no system call.
func (y *yard) task(rounds int) {
	x := yardSink | 1
	for j := 0; j < rounds; j++ {
		for i := 0; i < yardTaskTrips; i++ {
			y.ping <- i
			<-y.pong
		}
		for i := 0; i < yardTaskMapOps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			k := (x >> 33) % yardTaskMapKeys
			y.taskMap[k] = x
			if v, ok := y.taskMap[(k*7)%yardTaskMapKeys]; ok {
				x ^= v
			}
			if i&3 == 0 {
				delete(y.taskMap, (k*13)%yardTaskMapKeys)
			}
		}
		copy(y.sortBuf, y.sortSrc)
		sort.Ints(y.sortBuf)
	}
	yardSink = x ^ uint64(y.sortBuf[0])
}

func yardCPU(rounds int) {
	x, idx := uint64(88172645463325252), yardSink|1
	for j := 0; j < rounds; j++ {
		for i := 0; i < yardCPUSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		for i := 0; i < yardCPUReads; i++ {
			idx = idx*6364136223846793005 + 1442695040888963407 + uint64(yardTable[(idx>>20)%yardCPUTable])
		}
	}
	yardSink = x ^ idx
}

func (y *yard) sysOp(j int) error {
	tmp := filepath.Join(y.dir, "spool", fmt.Sprint("t", j&7))
	dst := filepath.Join(y.dir, "box", fmt.Sprint("m", j&7))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(y.body)
	if err == nil {
		err = f.Sync()
	}
	f.Close()
	if err != nil {
		return err
	}
	if err := os.Link(tmp, dst); err != nil {
		return err
	}
	if err := os.Remove(tmp); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Join(y.dir, "box")); err == nil {
		d.Sync()
		d.Close()
	}
	g, err := os.Open(dst)
	if err != nil {
		return err
	}
	var rb [512]byte
	for {
		k, _ := g.Read(rb[:])
		if k == 0 {
			break
		}
	}
	g.Close()
	return os.Remove(dst)
}

func (y *yard) echoTrip() error {
	if _, err := y.echo.Write(y.echoBuf); err != nil {
		return err
	}
	for got := 0; got < len(y.echoBuf); {
		k, err := y.echo.Read(y.echoBuf[got:])
		if err != nil {
			return err
		}
		got += k
	}
	return nil
}

// sample runs the blend once and returns how long it took. A kernel
// that fails (the store's file system filled up, the loopback
// connection broke) panics: a run without its yardstick has no numbers.
func (y *yard) sample() time.Duration {
	before := snapProc()
	defer func() { y.own.add(snapProc().since(before)) }()
	t0 := time.Now()
	if y.blend.taskRounds > 0 {
		y.task(y.blend.taskRounds)
	}
	if y.blend.cpuRounds > 0 {
		yardCPU(y.blend.cpuRounds)
	}
	for j := 0; j < y.blend.sysOps; j++ {
		if err := y.sysOp(j); err != nil {
			panic(fmt.Sprintf("bench: yardstick file kernel: %v", err))
		}
	}
	for j := 0; j < y.blend.echoTrips; j++ {
		if err := y.echoTrip(); err != nil {
			panic(fmt.Sprintf("bench: yardstick echo kernel: %v", err))
		}
	}
	y.lastAt = time.Now()
	y.last = y.lastAt.Sub(t0)
	y.samples = append(y.samples, y.last)
	return y.last
}

// before returns the sample that opens a bracket: the latest one if it
// has only just ended, else a new one.
func (y *yard) before() time.Duration {
	if !y.lastAt.IsZero() && time.Since(y.lastAt) < freshFor {
		return y.last
	}
	return y.sample()
}

// rawTimings is bench --raw: every scale is 1, so the run reports
// wall-clock figures as measured (the samples are still taken, so that
// the run is the same run).
var rawTimings bool

// scaleOf is the factor a time measured between samples y0 and y1 is
// multiplied by (a rate is divided by it).
func (y *yard) scaleOf(y0, y1 time.Duration) float64 {
	if rawTimings {
		return 1
	}
	return 2 * float64(y.blend.nominal()) / float64(y0+y1)
}

// bracket runs f between two samples and returns the scale for
// whatever f timed.
func (y *yard) bracket(f func()) float64 {
	y0 := y.before()
	f()
	return y.scaleOf(y0, y.sample())
}

// timed runs f between two samples and returns its duration, raw and
// normalised, in seconds.
func (y *yard) timed(f func()) (raw, norm float64) {
	var d time.Duration
	s := y.bracket(func() {
		t0 := time.Now()
		f()
		d = time.Since(t0)
	})
	return d.Seconds(), d.Seconds() * s
}

// timedOnce is timed for work that is seconds long and measured once
// or twice in a run: n samples on either side and the median of the
// 2n, because the reading of a single 10 ms sample is itself a tenth
// uncertain — which a median over forty slices absorbs and a single
// figure does not.
func (y *yard) timedOnce(n int, f func()) (raw, norm float64) {
	around := make([]time.Duration, 0, 2*n)
	for i := 0; i < n; i++ {
		around = append(around, y.sample())
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	for i := 0; i < n; i++ {
		around = append(around, y.sample())
	}
	m := time.Duration(medianDuration(around) * float64(time.Second))
	return d.Seconds(), d.Seconds() * y.scaleOf(m, m)
}

// hostSpeed is the run's median reading against the reference: 1 means
// the host ran the yardstick at the reference speed, 1.25 a quarter
// faster.
func (y *yard) hostSpeed() float64 {
	if len(y.samples) == 0 {
		return 0
	}
	return y.blend.nominal().Seconds() / medianDuration(y.samples)
}

// yardReadings times each kernel alone for about d and returns the
// per-unit readings: what bench --yard prints, and how the nominal
// constants were taken.
func yardReadings(dir string, d time.Duration) (taskRound, cpuRound, sysOp, echoTrip time.Duration, err error) {
	per := func(blend yardBlend, units int) (time.Duration, error) {
		y, err := newYard(blend, dir)
		if err != nil {
			return 0, err
		}
		defer y.close()
		for end := time.Now().Add(d); time.Now().Before(end); {
			y.sample()
		}
		return time.Duration(medianDuration(y.samples) * float64(time.Second) / float64(units)), nil
	}
	if taskRound, err = per(yardBlend{taskRounds: 10}, 10); err != nil {
		return
	}
	if cpuRound, err = per(yardBlend{cpuRounds: 100}, 100); err != nil {
		return
	}
	if sysOp, err = per(yardBlend{sysOps: 400}, 400); err != nil {
		return
	}
	echoTrip, err = per(yardBlend{echoTrips: 1500}, 1500)
	return
}
