// Package postal reproduces the benchmark workload of §9.3, which the
// paper drives with the Postal suite's `postal` (rapid delivery) and
// `rabid` (pickup with per-message hash verification) tools: a closed
// loop per core issuing an equal mix of SMTP-style deliveries and
// POP3-style pickup+delete sessions, each request choosing one of the
// users uniformly at random, with the total number of requests fixed as
// the core count varies.
//
// Like rabid, pickups verify each message against a hash recorded in a
// header line, catching corrupt or torn messages.
package postal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mailboat"
	"repro/internal/obs"
)

// Backend abstracts a mail server under benchmark. The worker index
// lets implementations keep per-worker state (thread handles, PRNGs).
type Backend interface {
	Deliver(worker int, user uint64, msg []byte) error
	Pickup(worker int, user uint64) ([]mailboat.Message, error)
	Delete(worker int, user uint64, id string) error
	Unlock(worker int, user uint64)
}

// Options shapes a run, defaulting to the paper's parameters.
type Options struct {
	// Workers is the number of closed-loop clients (one per core in
	// Figure 11).
	Workers int
	// Users is the number of mailboxes requests are spread over
	// (100 in §9.3).
	Users uint64
	// TotalRequests is the fixed request count divided among workers.
	TotalRequests int
	// MessageBytes sizes the delivered message body.
	MessageBytes int
	// Seed makes runs reproducible.
	Seed int64
}

func (o *Options) fill() {
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Users == 0 {
		o.Users = 100
	}
	if o.TotalRequests == 0 {
		o.TotalRequests = 10000
	}
	if o.MessageBytes == 0 {
		o.MessageBytes = 256
	}
}

// Result summarizes one run.
type Result struct {
	Requests   int
	Delivers   int
	Pickups    int
	Messages   int // messages verified during pickups
	BadHashes  int // rabid-style verification failures
	Errors     int
	Elapsed    time.Duration
	Throughput float64
	Deliver    LatencySummary
	Pickup     LatencySummary
}

func (r Result) String() string {
	return fmt.Sprintf("%d reqs in %v = %.0f req/s (%d delivers, %d pickups, %d msgs verified, %d bad, %d errors; deliver p50/p99 %s/%s, pickup p50/p99 %s/%s)",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.Delivers, r.Pickups, r.Messages, r.BadHashes, r.Errors,
		fmtSec(r.Deliver.P50), fmtSec(r.Deliver.P99),
		fmtSec(r.Pickup.P50), fmtSec(r.Pickup.P99))
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// LatencySummary condenses an obs latency histogram: quantiles are
// bucket-interpolated (histogram_quantile style), in seconds.
type LatencySummary struct {
	Count uint64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
}

func summarize(h *obs.Histogram) LatencySummary {
	s := LatencySummary{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = h.Sum() / float64(s.Count)
	}
	return s
}

// Compose builds a message body of approximately size bytes whose first
// line records the FNV-64a hash of the body, rabid-style. The body is
// newline-terminated so the message survives SMTP/POP3 line framing
// byte-exactly (the protocols are line-oriented).
func Compose(rng *rand.Rand, size int) []byte {
	if size < 1 {
		size = 1
	}
	body := make([]byte, size)
	const letters = "abcdefghijklmnopqrstuvwxyz \n"
	for i := range body {
		body[i] = letters[rng.Intn(len(letters))]
	}
	body[size-1] = '\n'
	h := fnv.New64a()
	h.Write(body)
	return []byte(fmt.Sprintf("X-Hash: %016x\n%s", h.Sum64(), body))
}

// Verify checks a composed message's hash header, returning false for
// torn or corrupt messages.
func Verify(msg string) bool {
	rest, ok := strings.CutPrefix(msg, "X-Hash: ")
	if !ok || len(rest) < 17 {
		return false
	}
	var want uint64
	if _, err := fmt.Sscanf(rest[:16], "%x", &want); err != nil {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(rest[17:]))
	return h.Sum64() == want
}

// Run drives the closed-loop mixed workload and returns aggregate
// results. Each worker alternates requests pseudo-randomly between a
// delivery and a pickup+delete-all+unlock session (the paper's "equal
// ratio" mix), against a uniformly random user.
func Run(b Backend, opts Options) Result {
	opts.fill()
	perWorker := opts.TotalRequests / opts.Workers
	var delivers, pickups, messages, bad, errs atomic.Int64
	// Lock-free histograms, shared by all workers without aggregation.
	deliverLat := obs.NewHistogram(obs.DefLatencyBuckets)
	pickupLat := obs.NewHistogram(obs.DefLatencyBuckets)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			for i := 0; i < perWorker; i++ {
				user := uint64(rng.Int63n(int64(opts.Users)))
				if rng.Intn(2) == 0 {
					msg := Compose(rng, opts.MessageBytes)
					t0 := time.Now()
					err := b.Deliver(w, user, msg)
					deliverLat.ObserveSince(t0)
					if err != nil {
						errs.Add(1)
					} else {
						delivers.Add(1)
					}
				} else {
					// The pickup latency covers the whole POP3-style
					// session: listing, verification, deletes, unlock.
					t0 := time.Now()
					msgs, err := b.Pickup(w, user)
					if err != nil {
						pickupLat.ObserveSince(t0)
						errs.Add(1)
						continue
					}
					for _, m := range msgs {
						messages.Add(1)
						if !Verify(m.Contents) {
							bad.Add(1)
						}
						if err := b.Delete(w, user, m.ID); err != nil {
							errs.Add(1)
						}
					}
					b.Unlock(w, user)
					pickupLat.ObserveSince(t0)
					pickups.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := int(delivers.Load() + pickups.Load())
	return Result{
		Requests:   total,
		Delivers:   int(delivers.Load()),
		Pickups:    int(pickups.Load()),
		Messages:   int(messages.Load()),
		BadHashes:  int(bad.Load()),
		Errors:     int(errs.Load()),
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
		Deliver:    summarize(deliverLat),
		Pickup:     summarize(pickupLat),
	}
}
