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
	"errors"
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

// Result summarizes a run, or one phase window of an open-loop run.
// Each request lands in exactly one of Delivers, Pickups or Errors: a
// pickup session that serves a message with a bad hash or fails a
// delete is one error. Messages and BadHashes count messages served,
// not requests.
type Result struct {
	Requests   int
	Delivers   int
	Pickups    int
	Messages   int // messages verified during pickups
	BadHashes  int // rabid-style verification failures
	Errors     int
	Elapsed    time.Duration
	Throughput float64 // Delivers+Pickups per second of Elapsed
	Deliver    LatencySummary
	Pickup     LatencySummary
	// Phases slices an open-loop run by its PhaseWindows.
	Phases []Phase
}

// Phase is one window's slice of an open-loop run; its Elapsed and
// Throughput are zero, the run's own being the only wall clock.
type Phase struct {
	Name  string
	Gated bool
	Result
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

// errBadHash fails a pickup session that served a torn or corrupt
// message.
var errBadHash = errors.New("postal: message fails its hash")

// tally accumulates one run's or one phase's requests. Its counters
// and histograms are lock-free, shared by every worker.
type tally struct {
	delivers, pickups, errs, messages, bad atomic.Int64
	deliver, pickup                        *obs.Histogram
}

func newTally() *tally {
	return &tally{
		deliver: obs.NewHistogram(obs.DefLatencyBuckets),
		pickup:  obs.NewHistogram(obs.DefLatencyBuckets),
	}
}

// record counts one request.
func (t *tally) record(deliver bool, lat float64, msgs, bad int, err error) {
	if deliver {
		t.deliver.Observe(lat)
	} else {
		t.pickup.Observe(lat)
		t.messages.Add(int64(msgs))
		t.bad.Add(int64(bad))
	}
	switch {
	case err != nil:
		t.errs.Add(1)
	case deliver:
		t.delivers.Add(1)
	default:
		t.pickups.Add(1)
	}
}

func (t *tally) result(elapsed time.Duration) Result {
	r := Result{
		Delivers:  int(t.delivers.Load()),
		Pickups:   int(t.pickups.Load()),
		Errors:    int(t.errs.Load()),
		Messages:  int(t.messages.Load()),
		BadHashes: int(t.bad.Load()),
		Elapsed:   elapsed,
		Deliver:   summarize(t.deliver),
		Pickup:    summarize(t.pickup),
	}
	r.Requests = r.Delivers + r.Pickups + r.Errors
	if elapsed > 0 {
		r.Throughput = float64(r.Delivers+r.Pickups) / elapsed.Seconds()
	}
	return r
}

// request issues the next request s draws, as worker w, and records it
// once in the run's tally and once in its phase's (nil for none). A
// delivery sends a freshly composed message; a pickup is the whole
// POP3-style session: list, verify and delete every message, unlock.
// Latency runs from the scheduled start, or from issue if from is zero.
func request(b Backend, w int, s *Sampler, size int, from time.Time, run, phase *tally) {
	deliver := s.NextIsDeliver()
	user := s.NextUser()
	var msg []byte
	if deliver {
		msg = Compose(s.Rng(), size)
	}
	if from.IsZero() {
		from = time.Now()
	}
	var err error
	var msgs []mailboat.Message
	bad := 0
	if deliver {
		err = b.Deliver(w, user, msg)
	} else if msgs, err = b.Pickup(w, user); err == nil {
		for _, m := range msgs {
			if !Verify(m.Contents) {
				bad++
				err = errBadHash
			}
			if derr := b.Delete(w, user, m.ID); derr != nil && err == nil {
				err = derr
			}
		}
		b.Unlock(w, user)
	}
	lat := time.Since(from).Seconds()
	run.record(deliver, lat, len(msgs), bad, err)
	if phase != nil {
		phase.record(deliver, lat, len(msgs), bad, err)
	}
}

// drive runs body for each of n workers concurrently and returns the
// wall time until the last one returned.
func drive(n int, body func(w int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// Run drives the closed-loop mixed workload: each worker issues its
// share of the requests back to back, each drawn by the worker's
// Sampler over a uniform population with the paper's equal mix.
func Run(b Backend, opts Options) Result {
	opts.fill()
	perWorker := opts.TotalRequests / opts.Workers
	run := newTally()
	elapsed := drive(opts.Workers, func(w int) {
		s := NewSampler(Workload{Users: opts.Users}, opts.Seed, w)
		for i := 0; i < perWorker; i++ {
			request(b, w, s, opts.MessageBytes, time.Time{}, run, nil)
		}
	})
	return run.result(elapsed)
}
