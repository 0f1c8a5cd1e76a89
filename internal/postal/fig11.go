package postal

import (
	"fmt"
	"runtime"
	"strings"
)

// SweepPoint is one (server, cores) measurement of the Figure 11 sweep.
type SweepPoint struct {
	Server string
	Cores  int
	Result Result
}

// SweepOptions configures a Figure 11 reproduction.
type SweepOptions struct {
	// Servers to measure; defaults to mailboat, gomail, cmail.
	Servers []string
	// Cores is the list of core counts (Figure 11 uses 1..12).
	Cores []int
	// Users is the mailbox count (100 in §9.3).
	Users uint64
	// RequestsPerPoint is the fixed total request count per measurement.
	RequestsPerPoint int
	// BaseDir hosts the per-point scratch stores; defaults to RAMDir().
	BaseDir string
	// Seed makes the sweep reproducible.
	Seed int64
	// NoFsync runs the mailboat backends with durability barriers off
	// (mailbench -no-fsync): faster, but an OS crash may take back
	// acked deliveries — the checked contract weakens to prefix
	// durability. The gomail and cmail baselines ignore the knob.
	NoFsync bool
}

func (o *SweepOptions) fill() {
	if len(o.Servers) == 0 {
		o.Servers = servers
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{1, 2, 4, 8}
	}
	if o.Users == 0 {
		o.Users = 100
	}
	if o.RequestsPerPoint == 0 {
		o.RequestsPerPoint = 20000
	}
	if o.BaseDir == "" {
		o.BaseDir = RAMDir()
	}
}

// Sweep reproduces Figure 11: for each server and core count, it runs
// the closed-loop mixed workload on a fresh RAM-backed store with
// GOMAXPROCS pinned to the core count, and reports throughput. An
// unknown server name is refused before any store is built.
func Sweep(opts SweepOptions) ([]SweepPoint, error) {
	for _, s := range opts.Servers {
		if err := knownServer(s); err != nil {
			return nil, err
		}
	}
	opts.fill()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var points []SweepPoint
	for _, cores := range opts.Cores {
		runtime.GOMAXPROCS(cores)
		for _, server := range opts.Servers {
			b, cleanup, err := newBackend(server, opts.BaseDir, opts.Users, cores, opts.Seed, opts.NoFsync)
			if err != nil {
				return nil, fmt.Errorf("building %s: %w", server, err)
			}
			res := Run(b, Options{
				Workers:       cores,
				Users:         opts.Users,
				TotalRequests: opts.RequestsPerPoint,
				Seed:          opts.Seed,
			})
			cleanup()
			if res.BadHashes > 0 {
				return nil, fmt.Errorf("%s at %d cores: %d hash verification failures", server, cores, res.BadHashes)
			}
			points = append(points, SweepPoint{Server: server, Cores: cores, Result: res})
		}
	}
	return points, nil
}

// FormatSweep renders the sweep as the Figure 11 table: one row per
// core count, one column per server, entries in requests/second.
func FormatSweep(points []SweepPoint) string {
	servers := []string{}
	seen := map[string]bool{}
	coresSet := map[int]bool{}
	for _, p := range points {
		if !seen[p.Server] {
			seen[p.Server] = true
			servers = append(servers, p.Server)
		}
		coresSet[p.Cores] = true
	}
	cores := []int{}
	for c := range coresSet {
		cores = append(cores, c)
	}
	for i := 0; i < len(cores); i++ {
		for j := i + 1; j < len(cores); j++ {
			if cores[j] < cores[i] {
				cores[i], cores[j] = cores[j], cores[i]
			}
		}
	}

	lookup := map[string]float64{}
	for _, p := range points {
		lookup[fmt.Sprintf("%s/%d", p.Server, p.Cores)] = p.Result.Throughput
	}

	var b strings.Builder
	b.WriteString("Figure 11: throughput (requests/sec) vs cores\n")
	fmt.Fprintf(&b, "%-7s", "cores")
	for _, s := range servers {
		fmt.Fprintf(&b, "%12s", s)
	}
	b.WriteString("\n")
	for _, c := range cores {
		fmt.Fprintf(&b, "%-7d", c)
		for _, s := range servers {
			fmt.Fprintf(&b, "%12.0f", lookup[fmt.Sprintf("%s/%d", s, c)])
		}
		b.WriteString("\n")
	}
	return b.String()
}
