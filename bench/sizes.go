package main

import (
	"runtime"
	"time"
)

// runSeconds is the contract's run_seconds: the nominal length of a
// mail workload's measured closed loop.
const runSeconds = 20

// sizes is THE table of workload sizes: every duration, population,
// pass count and limit the four workloads use. The issue's seed-measured
// estimates (30 s phases, 3+2 checker passes) are scaled down here so
// that the driver's 92 runs fit its time cap; nothing else in bench/
// hard-codes a size. Durations scale with --seconds (the contract's
// run_seconds is runSeconds); populations do not, because
// cache-relative working-set size is part of each workload's
// definition.
type sizes struct {
	// parallel is how many callers/workers/connections the legs that
	// need parallelism use: min(nproc, 4). Every gated measurement runs
	// one client on one P instead (README, "Steadiness"); the parallel
	// legs are the traced run's: the Workers: parallel checker pass, the
	// contended storage leg, mail-net's open loop.
	parallel int

	// ---- yardsticks (yardstick.go): one sample is about 10 ms ----
	yardCheck yardBlend     // check-suite and the checker canary
	yardStore yardBlend     // mail-direct: half its time is in system calls
	yardVault yardBlend     // mail-vault: four fifths of its time is user-space compute (checksums, copies, the collector)
	yardNet   yardBlend     // mail-net
	yardEvery time.Duration // a checker pass is cut into stretches this long, a sample between every two
	yardOnce  int           // samples on either side of a seconds-long one-off (vault set-up, vault reopen)

	// ---- all mail-* workloads ----
	warm          time.Duration // unmeasured warm-up before the closed-loop phase
	measure       time.Duration // measured closed-loop phase
	slice         time.Duration // slice width: throughput and the latency quantiles are medians over slices
	segments      int           // the closed loop runs in this many segments, a burst of the small metrics between them
	segWarm       time.Duration // unmeasured lead-in of every segment after the first
	setupReps     int           // check-suite: scenario-set constructions between two yardstick samples
	setupBrackets int           // and how many such brackets a burst holds
	poolPerClass  int           // distinct message bodies per size class

	// ---- mail-direct / mail-net ----
	directUsers     uint64 // paper: 100 mailboxes, uniform
	setupsPerBurst  int    // discarded set-ups per burst; setup_s is the median of all
	reopensPerBurst int    // close→reopen cycles per burst; recover_s is the median of all

	// ---- mail-net ----
	// openConns is how many connections carry the open loop. Go's
	// runtime timers are millisecond-granular on Linux (an idle P parks
	// in epoll_wait, whose timeout is in ms), so a sleeping generator
	// wakes 0.1-1.1 ms late. With a handful of connections at 2000 req/s
	// each, that lateness exceeds the 500 us send interval and cascades:
	// every request finds its connection "still busy" with a predecessor
	// that was merely sent late. Spreading the schedule over many
	// connections — independent users are what an open loop models —
	// makes each connection's interval (8 ms at 4000 req/s) an order
	// above the lateness, so a connection is busy at a due time only
	// when the system stalled it.
	openConns    int
	netRates     [3]int // open-loop rates, req/s; the names loadgen.r2000/r4000/r6000 follow these
	netGate      int    // the rate at which the generator's own figures (loadgen.late_*, backlog_max) are reported
	netStep      [3]time.Duration
	netStepSlice time.Duration // slice width of the open-loop steps' quantiles
	netStepWarm  time.Duration // unmeasured lead-in of every rate step
	netCalib     time.Duration // no-op backend calibration at the top rate
	deliverLimit time.Duration // open-loop p99 limits: a rate whose p99 exceeds one is not "ok"
	pickupLimit  time.Duration

	// ---- mail-vault ----
	vaultMeasure        time.Duration // the vault's closed loop is shorter: its set-ups and its reopen are seconds long
	vaultUsers          uint64        // > gfs.DefaultMaxDirHandles (4096), per replica
	vaultPreload        int           // messages preloaded per mailbox (this is most of setup_s)
	vaultZipfS          float64       // postal.Sampler exponent
	vaultSetupsPerBurst int
	vaultSetupBursts    []int // the bursts that repeat the (seconds-long) vault set-up

	// ---- traced legs (op-count-bounded so counts repeat exactly) ----
	tracedOps      int // mail-direct, mail-net
	tracedVaultOps int

	// ---- check-suite ----
	seqPasses   int // Workers:1 passes over suite.Verified(); verify_s is the median
	parPasses   int // Workers:parallel passes (traced run only); explore.verify_par_s is the median
	convictReps int // rounds over suite.Bugs(), interleaved with the passes; convict_s is the median round
	execCap     int // 0 = each entry's own Opts; smoke caps the verified budgets
	bugCap      int // 0 = every suite.Bugs() entry; smoke convicts only the first few
	microN      int // iterations of each machine/core microbenchmark
	microChecks int // history.Check repetitions

	// ---- canaries (the other product's metrics, see README) ----
	canaryReps     int // checker canary on mail-*: repetitions (after everything else); median
	canaryWarm     int // and discarded ones before them
	canaryExecs    int // the checker canary's execution budget
	modelStretches int // mail canary on check-suite: stretches of the modelled closed loop per sampling (there are six)
	modelSlices    int // slices per stretch
	modelSliceOps  int // requests per slice
	modelUsers     uint64
	modelRecover   int // modelled crash+Recover repetitions
}

// clientCount is the issue's rule for parallel legs: min(nproc, 4).
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// newSizes builds the table for a run of the given nominal length.
// smoke shrinks everything so all four workloads finish in about two
// seconds together (the bench/ tests run it).
func newSizes(seconds int, smoke bool) sizes {
	sec := time.Duration(seconds) * time.Second
	z := sizes{
		parallel: clientCount(),

		yardCheck: yardBlend{taskRounds: 7},
		yardStore: yardBlend{sysOps: 450},
		yardVault: yardBlend{cpuRounds: 50, sysOps: 145},
		yardNet:   yardBlend{sysOps: 200, echoTrips: 1000},
		yardEvery: 250 * time.Millisecond,
		yardOnce:  8,

		warm:          time.Second,
		measure:       sec,
		slice:         500 * time.Millisecond,
		segments:      5,
		segWarm:       200 * time.Millisecond,
		setupReps:     150,
		setupBrackets: 10,
		poolPerClass:  32,

		directUsers:     100,
		setupsPerBurst:  6,
		reopensPerBurst: 16,

		openConns:    16 * clientCount(),
		netRates:     [3]int{2000, 4000, 6000},
		netGate:      4000,
		netStep:      [3]time.Duration{sec * 10 / 100, sec * 10 / 100, sec * 10 / 100},
		netStepSlice: 500 * time.Millisecond,
		netStepWarm:  300 * time.Millisecond,
		netCalib:     sec * 5 / 100,
		deliverLimit: 5 * time.Millisecond,
		pickupLimit:  10 * time.Millisecond,

		vaultMeasure:        sec * 70 / 100,
		vaultUsers:          10000,
		vaultPreload:        2,
		vaultZipfS:          1.1,
		vaultSetupsPerBurst: 1,
		vaultSetupBursts:    []int{3},

		tracedOps:      5000,
		tracedVaultOps: 2000,

		seqPasses:   clampInt(seconds/30, 1, 2),
		parPasses:   1,
		convictReps: 6,
		microN:      200000,
		microChecks: 200,

		canaryReps:     12,
		canaryWarm:     1,
		canaryExecs:    2000,
		modelStretches: 3,
		modelSlices:    2,
		modelSliceOps:  2000,
		modelUsers:     4,
		modelRecover:   501,
	}
	if smoke {
		ms := time.Millisecond
		z.yardCheck, z.yardStore, z.yardNet = yardBlend{cpuRounds: 1}, yardBlend{sysOps: 2}, yardBlend{sysOps: 1, echoTrips: 2}
		z.yardVault = yardBlend{cpuRounds: 1, sysOps: 1}
		z.yardEvery, z.yardOnce = 20*ms, 1
		z.warm, z.measure, z.vaultMeasure, z.slice = 20*ms, 200*ms, 200*ms, 50*ms
		z.segments, z.segWarm = 2, 5*ms
		z.setupReps, z.setupBrackets, z.setupsPerBurst, z.reopensPerBurst = 1, 1, 0, 1
		z.poolPerClass = 4
		z.openConns = 4 * z.parallel
		z.netStep = [3]time.Duration{60 * ms, 80 * ms, 60 * ms}
		z.netStepWarm, z.netCalib, z.netStepSlice = 10*ms, 40*ms, 20*ms
		z.vaultUsers, z.vaultPreload, z.vaultSetupBursts = 300, 1, []int{}
		z.tracedOps, z.tracedVaultOps = 150, 100
		z.seqPasses, z.parPasses, z.convictReps = 1, 1, 1
		z.execCap, z.bugCap = 60, 4
		z.microN, z.microChecks = 2000, 3
		z.canaryReps, z.canaryWarm, z.canaryExecs = 1, 0, 60
		z.modelStretches, z.modelSlices, z.modelSliceOps, z.modelRecover = 1, 2, 150, 3
	}
	return z
}
