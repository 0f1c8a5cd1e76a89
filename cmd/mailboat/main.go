// mailboat runs the verified mail server with its SMTP and POP3 front
// ends over a real directory (§8.2's deployment). On startup it runs
// Recover, so restarting after a crash is always safe; on SIGINT or
// SIGTERM it drains in-flight sessions (bounded by -grace) before
// exiting.
//
// Usage:
//
//	mailboat [-dir path] [-mirror path] [-users N] [-smtp addr] [-pop3 addr]
//	         [-admin addr] [-max-conns N] [-timeout d] [-grace d] [-no-fsync]
//	         [-retries N] [-backoff d] [-checksum] [-scrub-interval d]
//	         [-quota N] [-max-inflight N] [-shed-low N] [-shed-high N]
//	         [-fault-seed N] [-fault-rate N] [-fault-max N]
//	         [-replica addr | -backup-of addr] [-repl-listen addr]
//
// Deliver mail to userN@any-domain over SMTP; read it back by
// authenticating as userN over POP3 (any password).
//
// By default the store runs the full checked sync discipline: spool
// files are fsynced before publishing AND the mailbox directory is
// fsynced before a delivery or delete is acknowledged, so an acked
// operation survives an OS crash on writeback file systems (ext4,
// xfs). -no-fsync skips every barrier for speed; its weaker contract —
// verified by the mb/writeback+prefix-contract checker scenario — is
// prefix durability: a crash may take back the NEWEST acked
// deliveries, but the surviving mailbox is always a hole-free prefix
// of the delivery order, never reordered or fabricated.
//
// -admin starts an operational HTTP listener serving Prometheus-text
// /metrics (every layer: gfs_*, mailboat_*, mailboatd_*, smtp_*,
// pop3_*, trace_stage_seconds), /healthz and /version (JSON), request
// timelines on /traces and /traces/slow, and net/http/pprof under
// /debug/pprof/. Metrics are collected whether or not the listener is
// enabled; request tracing is only enabled with it (a nil tracer makes
// every span site a no-op).
//
// -mirror runs the store mirrored across two directories (put them on
// different disks): every write goes to both replicas, reads fail over
// if a replica dies, and a reboot resilvers a replaced replica from the
// survivor before serving. While degraded, /healthz answers 503 with
// the per-replica status as JSON. Does not compose with -fault-rate
// (gfs.StackSpec.Validate has the rule and the reason).
//
// -checksum stores every file inside a checksummed envelope: reads that
// fail verification error out loudly instead of serving rot, and on a
// mirrored store rotten copies heal from the good replica on read, on
// boot, and on every scrub pass. -scrub-interval runs a background
// heal-scrub at that period (0 = off); POST /scrub on the admin
// listener runs one on demand, and /healthz answers 503 while the last
// scrub reports unhealed damage.
//
// -quota caps each mailbox's stored bytes: an over-quota delivery is
// refused up front with SMTP 452 (insufficient system storage) and the
// store untouched; deleting mail over POP3 credits the bytes back.
// Usage is re-derived from the store on every boot. Refused together
// with -replica / -backup-of: the replicated delivery path keeps no
// quota.
//
// -shed-low/-shed-high and -max-inflight are the overload-shedding
// policy: when the file system backing -dir drops below -shed-low free
// bytes (measured with statfs, cached), or more than -max-inflight
// deliveries are in flight, new deliveries are refused with SMTP 452
// instead of being raced into ENOSPC, and /healthz answers 503 with
// the shed snapshot so load balancers steer mail elsewhere. Shedding
// stops once free space rises above -shed-high (hysteresis; default
// 2x -shed-low). Reads (POP3) are never shed — mail already stored
// costs no new space to serve. The gfs_space_free_bytes and
// shed_deliveries_total metrics track the policy on /metrics.
//
// -replica and -backup-of run a primary/backup replicated pair — the
// same protocol the mb/repl checker scenarios verify, over a
// length-prefixed TCP transport. The primary (-replica pointing at the
// backup's -repl-listen address) serves clients and replicates every
// delivery and delete to the backup before acknowledging it; the
// backup (-backup-of, plus a required -repl-listen) serves only the
// replication protocol and the admin surface — no SMTP or POP3. A
// restarted backup is re-admitted automatically: the primary's
// seq-aware liveness probe notices the listener, sees the backup's
// rebooted apply cursor trailing its sequence space, and runs the
// catch-up resync within one ping period — even on an idle primary. /healthz on either node reports role, epoch, and
// last-resync time, answering 503 while the pair is degraded.
// Promotion of a backup is an operator action (restart it with
// -replica); only promote a backup whose /healthz shows it in sync.
// Replication runs on a single bare store: no -mirror, -checksum or
// -fault-rate.
//
// The -fault-* flags run the server in fault-drill mode: a
// deterministic gfs.Faulty layer injects transient file-system faults
// (1 in -fault-rate calls per operation class) from -fault-seed's
// schedule. The same seed replays the same drill; a per-class summary
// of the injected-fault log (plus the first few events) is printed on
// shutdown. Clients see SMTP 451 / POP3 -ERR [SYS/TEMP] for failures
// the retry layer cannot absorb — never lost acknowledged mail.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/gfs"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/pop3"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// faultLogDumpCap bounds the shutdown fault-log dump: a long drill can
// inject millions of faults, and dumping them all would bury the
// summary (and stall shutdown). The full log stays available over
// -admin while the process runs.
const faultLogDumpCap = 20

// dumpFaultLog prints a per-class summary of the drill's injected
// faults, then the first faultLogDumpCap events verbatim.
func dumpFaultLog(fl []gfs.FaultEvent) {
	var perClass [gfs.NumFaultOps]int
	for _, e := range fl {
		perClass[e.Op]++
	}
	log.Printf("mailboat: drill injected %d faults:", len(fl))
	for op := gfs.FaultOp(0); op < gfs.NumFaultOps; op++ {
		if n := perClass[op]; n > 0 {
			log.Printf("mailboat:   %-10s %d", op.String(), n)
		}
	}
	for i, e := range fl {
		if i == faultLogDumpCap {
			log.Printf("mailboat:   ... %d more events suppressed", len(fl)-faultLogDumpCap)
			break
		}
		log.Printf("mailboat:   %s", e)
	}
}

func main() {
	dir := flag.String("dir", "./mailboat-data", "mail store directory")
	users := flag.Uint64("users", 100, "number of user mailboxes")
	smtpAddr := flag.String("smtp", "127.0.0.1:2525", "SMTP listen address")
	popAddr := flag.String("pop3", "127.0.0.1:2110", "POP3 listen address")
	adminAddr := flag.String("admin", "", "admin HTTP listen address for /metrics, /healthz, /debug/pprof (empty = off)")
	maxConns := flag.Int("max-conns", 0, "max concurrent connections per listener (0 = unlimited)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-connection read/write deadline (0 = none)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period before force-closing sessions")
	mirrorDir := flag.String("mirror", "", "second replica directory: run the store mirrored (writes to both, reads fail over, boot resilvers a replaced replica)")
	noFsync := flag.Bool("no-fsync", false, "fast mode: skip ALL durability barriers; an OS crash may lose the newest acked mail (prefix-durability contract, see README)")
	retries := flag.Int("retries", 0, "delivery retry attempts on transient store failure (0 = default)")
	backoff := flag.Duration("backoff", 10*time.Millisecond, "base backoff between delivery retries")
	checksum := flag.Bool("checksum", false, "store files in checksummed envelopes; detect (and on a mirror, heal) silent corruption")
	scrubEvery := flag.Duration("scrub-interval", 0, "background integrity heal-scrub period (0 = off; requires -checksum)")
	replicaAddr := flag.String("replica", "", "run as replication PRIMARY: the backup's -repl-listen address to replicate to")
	backupOf := flag.String("backup-of", "", "run as replication BACKUP of the primary at this address (requires -repl-listen; no SMTP/POP3)")
	replListen := flag.String("repl-listen", "", "replication protocol listen address (required with -backup-of)")
	quota := flag.Uint64("quota", 0, "per-mailbox byte quota (0 = unlimited); over-quota deliveries are refused with SMTP 452; refused with -replica/-backup-of, whose delivery path keeps no quota")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently admitted deliveries; excess sheds with SMTP 452 (0 = unlimited)")
	shedLow := flag.Uint64("shed-low", 0, "free-byte low watermark: shed deliveries (SMTP 452, /healthz 503) when the store's file system has less free space (0 = off)")
	shedHigh := flag.Uint64("shed-high", 0, "free-byte high watermark: stop shedding once free space rises above this (default 2x -shed-low)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-drill schedule seed")
	faultRate := flag.Uint64("fault-rate", 0, "inject a fault into 1 in N file-system calls (0 = drills off)")
	faultMax := flag.Uint64("fault-max", 0, "cap on total injected faults (0 = unlimited)")
	flag.Parse()

	if *replicaAddr != "" && *backupOf != "" {
		log.Fatal("mailboat: -replica and -backup-of cannot both be set (a node is primary or backup, not both)")
	}
	if *backupOf != "" && *replListen == "" {
		log.Fatal("mailboat: -backup-of requires -repl-listen (the backup must serve the replication protocol)")
	}
	backup := *backupOf != ""

	// Durability: the full sync discipline is the default; -no-fsync
	// opts into the barrier-free fast mode, whose checked contract is
	// prefix durability only.
	durable := !*noFsync

	// Metrics are always collected (the disabled path costs one nil
	// check per event); -admin only controls whether they are served.
	reg := obs.NewRegistry()
	// Tracing follows the admin listener: without it there is nowhere
	// to read traces from, and a nil tracer makes the whole span path
	// free (nil-receiver no-ops all the way down).
	var tracer *trace.Tracer
	if *adminAddr != "" {
		tracer = trace.New(0, 0)
		tracer.Stages = trace.NewStageMetrics(reg)
	}
	opts := mailboatd.Options{
		Users:          *users,
		Seed:           time.Now().UnixNano(),
		SyncOnDeliver:  durable,
		SyncDirs:       durable,
		DeliverRetries: *retries,
		DeliverBackoff: *backoff,
		Metrics:        reg,
		MirrorRoot:     *mirrorDir,
		Checksum:       *checksum,
		ScrubEvery:     *scrubEvery,
		Tracer:         tracer,
		QuotaBytes:     *quota,
		MaxInFlight:    *maxInFlight,
		ShedLowWater:   *shedLow,
		ShedHighWater:  *shedHigh,
	}
	if *faultRate > 0 {
		opts.Fault = &mailboatd.FaultOptions{
			Seed:      *faultSeed,
			Rates:     gfs.UniformRates(*faultRate),
			MaxFaults: *faultMax,
		}
	}
	if *replicaAddr != "" {
		opts.Replica = &mailboatd.ReplicaOptions{
			Primary:    true,
			PeerAddr:   *replicaAddr,
			ListenAddr: *replListen,
		}
	} else if backup {
		opts.Replica = &mailboatd.ReplicaOptions{
			PeerAddr:   *backupOf,
			ListenAddr: *replListen,
		}
	}
	adapter, err := mailboatd.NewWithOptions(*dir, opts)
	if err != nil {
		log.Fatalf("mailboat: %v", err)
	}
	defer adapter.Close()
	log.Printf("mailboat: store %s recovered, %d users", *dir, *users)
	if !durable {
		log.Printf("mailboat: NO-FSYNC fast mode — an OS crash may lose the newest acked mail (prefix-durability contract only)")
	}
	if *mirrorDir != "" {
		log.Printf("mailboat: MIRRORED with replica %s (status %+v)", *mirrorDir, *adapter.MirrorStatus())
	}
	if opts.Fault != nil {
		log.Printf("mailboat: FAULT DRILL active (seed %d, 1 in %d calls)", *faultSeed, *faultRate)
	}
	if *checksum {
		log.Printf("mailboat: CHECKSUMMED store (scrub interval %v)", *scrubEvery)
	}
	if *quota > 0 {
		log.Printf("mailboat: per-mailbox quota %d bytes", *quota)
	}
	if *shedLow > 0 || *maxInFlight > 0 {
		inflight := "unbounded in-flight deliveries"
		if *maxInFlight > 0 {
			inflight = fmt.Sprintf("max %d deliveries in flight", *maxInFlight)
		}
		water := "no free-space watermark"
		if *shedLow > 0 {
			high := *shedHigh
			if high < *shedLow {
				high = 2 * *shedLow
			}
			water = fmt.Sprintf("low %d / high %d free bytes", *shedLow, high)
		}
		log.Printf("mailboat: SHED POLICY active (%s, %s)", water, inflight)
	}
	if *replicaAddr != "" {
		log.Printf("mailboat: PRIMARY replicating to backup at %s", *replicaAddr)
	}
	if backup {
		log.Printf("mailboat: BACKUP of %s — replication on %s, no client listeners", *backupOf, *replListen)
	}

	harden := func(read, write *time.Duration, conns *int) {
		*read = *timeout
		*write = *timeout
		*conns = *maxConns
	}
	errs := make(chan error, 3)
	// A backup serves only the replication protocol (plus admin): mail
	// clients talk to the primary, and a half-open POP3 path on the
	// backup would read a store that is legitimately behind mid-resync.
	var ss *smtp.Server
	var ps *pop3.Server
	if !backup {
		ss = smtp.NewServer(adapter, *users)
		ss.Metrics = smtp.NewMetrics(reg)
		ss.Tracer = tracer
		harden(&ss.ReadTimeout, &ss.WriteTimeout, &ss.MaxConns)
		go func() { errs <- ss.ListenAndServe(*smtpAddr) }()
		log.Printf("mailboat: SMTP on %s", *smtpAddr)

		ps = pop3.NewServer(adapter, *users)
		ps.Metrics = pop3.NewMetrics(reg)
		ps.Tracer = tracer
		harden(&ps.ReadTimeout, &ps.WriteTimeout, &ps.MaxConns)
		go func() { errs <- ps.ListenAndServe(*popAddr) }()
		log.Printf("mailboat: POP3 on %s", *popAddr)
	}

	if *adminAddr != "" {
		// Healthy = both protocol listeners are up (a backup has none;
		// its health is the replication snapshot's).
		healthz := func() error {
			if !backup && (ss.Addr() == nil || ps.Addr() == nil) {
				return errors.New("protocol listener not up")
			}
			return nil
		}
		// While the mirror is degraded or resilvering, /healthz answers
		// 503 with the per-replica status as JSON (nil func on plain,
		// non-mirrored stores keeps the 200 "ok" contract). The adapter
		// is the scrub runner; on a store without an integrity layer
		// POST /scrub answers 409 and /healthz is unaffected.
		as := &http.Server{Addr: *adminAddr, Handler: admin.Handler(reg, healthz, adapter.MirrorStatus, adapter, tracer, adapter.ReplHealth, adapter.ShedStatus)}
		go func() { errs <- as.ListenAndServe() }()
		defer as.Close()
		log.Printf("mailboat: admin HTTP on %s (/metrics, /healthz, /version, /traces, /debug/pprof)", *adminAddr)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errs:
		if err != nil {
			log.Fatalf("mailboat: %v", err)
		}
		log.Fatal("mailboat: listener closed unexpectedly")
	case sig := <-sigs:
		log.Printf("mailboat: %v, draining (up to %v)", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if ss != nil {
			if err := ss.Shutdown(ctx); err != nil {
				log.Printf("mailboat: smtp shutdown: %v", err)
			}
		}
		if ps != nil {
			if err := ps.Shutdown(ctx); err != nil {
				log.Printf("mailboat: pop3 shutdown: %v", err)
			}
		}
		if fl := adapter.FaultLog(); fl != nil {
			dumpFaultLog(fl)
		}
		log.Printf("mailboat: bye")
	}
}
