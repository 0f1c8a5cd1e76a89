package mailboatd

import (
	"bufio"
	"context"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/obs"
	"repro/internal/smtp"
)

// soakRig is the one live drill behind the five soaks: boot a store
// behind a real SMTP listener, load it with wire-level clients that
// record every body they send and every 250 they hear, act mid-traffic,
// kill the stack (a forced shutdown plus Close, the closest a test gets
// to the process dying), reboot through full crash recovery and audit
// the §8 contract at the wire: acked ⊆ stored ⊆ sent, no spool garbage.
type soakRig struct {
	t     *testing.T
	users uint64
	roots [2]string // the store; its mirror replica or its backup node

	a    *Adapter // the store under load; nil once killed
	srv  *smtp.Server
	addr string
	load sync.WaitGroup

	peer     *Adapter // the backup of a replicated pair
	peerAddr string

	mu          sync.Mutex
	sent, acked map[string]bool // by stored contents
	atMark      int             // acks when the mid-traffic action happened; -1 before
	replies     map[string]int  // by reply code
}

// open boots a store of the rig's users on root.
func (r *soakRig) open(root string, o Options) *Adapter {
	o.Users = r.users
	a, err := NewWithOptions(root, o)
	if err != nil {
		r.t.Fatal(err)
	}
	return a
}

// boot starts the store on roots[0] with o, and its SMTP listener.
func (r *soakRig) boot(o Options) {
	a := r.open(r.roots[0], o)
	srv := smtp.NewServer(a, r.users)
	srv.ReadTimeout, srv.WriteTimeout = 10*time.Second, 10*time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	go srv.Serve(ln)
	r.a, r.srv, r.addr = a, srv, ln.Addr().String()
	r.t.Cleanup(r.kill)
}

// kill force-closes every connection with an already-expired context,
// drops the store handles, and waits for the clients to notice.
func (r *soakRig) kill() {
	if r.a == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.srv.Shutdown(ctx)
	r.a.Close()
	r.a = nil
	r.load.Wait()
}

// bootPeer (re)starts the backup node on roots[1], at one fixed address.
func (r *soakRig) bootPeer() {
	if r.peerAddr == "" {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.t.Fatal(err)
		}
		r.peerAddr = lis.Addr().String()
		lis.Close()
		r.t.Cleanup(r.closePeer)
	}
	r.peer = r.open(r.roots[1], Options{Seed: 2, SyncOnDeliver: true, SyncDirs: true, Replica: &ReplicaOptions{ListenAddr: r.peerAddr}})
}

func (r *soakRig) closePeer() {
	if r.peer != nil {
		r.peer.Close()
		r.peer = nil
	}
}

// note records a body about to be sent (code "sent") or the reply it
// got. A 250 is the moment a loss becomes a durability violation; 451
// and 452 are refusals, with no obligation.
func (r *soakRig) note(contents, code string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent[contents] = true
	r.replies[code]++
	if code == "250" {
		r.acked[contents] = true
	}
}

// replied reads how many replies of code came; mark separates the acks
// before the mid-traffic action from those after it.
func (r *soakRig) replied(code string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replies[code]
}

func (r *soakRig) mark() { r.atMark = r.replied("250") }

// await polls until done, or fails the soak naming what never happened.
func (r *soakRig) await(what string, limit time.Duration, done func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(limit); !done(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("soak: %s never happened (250=%d 452=%d 451=%d)", what, r.replied("250"), r.replied("452"), r.replied("451"))
		}
	}
}

// smtpDeliver runs one MAIL/RCPT/DATA round on an open connection and
// returns the reply code prefix ("250", "452", "451", ...).
func smtpDeliver(conn net.Conn, r *bufio.Reader, user uint64, body string) (resp string, err error) {
	for i, cmd := range []string{"MAIL FROM:<soak@x>", fmt.Sprintf("RCPT TO:<user%d@x>", user), "DATA", body + "\r\n."} {
		if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
			return "", err
		}
		if resp, err = r.ReadString('\n'); err != nil {
			return "", err
		}
		if want := [...]string{"250", "250", "354", ""}[i]; len(resp) < 3 || !strings.HasPrefix(resp, want) {
			return "", fmt.Errorf("%s: %q", cmd, strings.TrimSpace(resp))
		}
	}
	return resp[:3], nil
}

// traffic starts clients SMTP clients, each making msgs delivery
// attempts of bodies "tag-client-C-msg-M" (msgs < 0: until the kill),
// pace apart. A client redials after a failed round and ends once the
// listener is gone — kill severs every connection and closes it — and
// load.Wait returns when they all have.
func (r *soakRig) traffic(tag string, clients, msgs int, pace time.Duration) {
	for c := 0; c < clients; c++ {
		r.load.Add(1)
		go func() {
			defer r.load.Done()
			for m := 0; m != msgs; {
				conn, err := net.Dial("tcp", r.addr)
				if err != nil {
					return
				}
				rd := bufio.NewReader(conn)
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				banner, err := rd.ReadString('\n')
				for up := err == nil && strings.HasPrefix(banner, "220"); up && m != msgs; m++ {
					body := fmt.Sprintf("%s-client-%d-msg-%d", tag, c, m)
					r.note(body+"\n", "sent")
					conn.SetDeadline(time.Now().Add(10 * time.Second))
					code, err := smtpDeliver(conn, rd, uint64(c+m)%r.users, body)
					if up = err == nil; up {
						r.note(body+"\n", code)
						time.Sleep(pace)
					}
				}
				conn.Close()
			}
		}()
	}
}

// audit reads every mailbox of the rebooted store b — acked ⊆ stored ⊆
// sent — and the spool directory recovery swept (a mirror's second one
// is held identical to it by redundant).
func (r *soakRig) audit(name string, b *Adapter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	stored := map[string]bool{}
	for u := uint64(0); u < r.users; u++ {
		msgs, err := b.Pickup(u)
		if err != nil {
			r.t.Fatal(err)
		}
		for _, m := range msgs {
			stored[m.Contents] = true
			if !r.sent[m.Contents] {
				r.t.Errorf("store serves bytes nobody sent: %q", m.Contents)
			}
		}
		b.Unlock(u)
	}
	r.t.Logf("%s soak: %d acked (%d before the mid-traffic action), %d stored after the reboot, replies %v", name, len(r.acked), max(r.atMark, 0), len(stored), r.replies)
	if len(r.acked) == 0 {
		r.t.Fatal("no message was ever acknowledged; the soak exercised nothing")
	}
	if r.replies["250"] == r.atMark {
		r.t.Fatal("no message acknowledged after the mid-traffic action; the drill raced nothing")
	}
	for body := range r.acked {
		if !stored[body] {
			r.t.Errorf("acknowledged message lost: %q", strings.TrimSpace(body))
		}
	}
	if n := len(readDirMap(r.t, filepath.Join(r.roots[0], mailboat.SpoolDir))); n != 0 {
		r.t.Errorf("%d spool files survived recovery", n)
	}
}

// readDirMap reads every file in dir into name → contents.
func readDirMap(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// sameFiles fails unless dirs hold the same files with the same bytes
// under both roots — the redundancy a mirror or a replicated pair owes.
func sameFiles(t *testing.T, rootA, rootB string, dirs []string) {
	for _, dir := range dirs {
		fa, fb := readDirMap(t, filepath.Join(rootA, dir)), readDirMap(t, filepath.Join(rootB, dir))
		if !maps.Equal(fa, fb) {
			t.Errorf("%s differs between the copies: %d files under %s, %d under %s", dir, len(fa), rootA, len(fb), rootB)
		}
	}
}

// redundant is what a rebooted mirror owes: resilvered, and its replica
// roots byte-identical, generation markers and (empty) spool included —
// envelopes are rebuilt deterministically, so even a healed file matches
// its peer byte for byte.
func redundant(r *soakRig, b *Adapter) {
	if st := b.MirrorStatus(); st.Degraded || st.Resilvering {
		r.t.Fatalf("mirror still degraded after the reboot resilver: %+v", st)
	}
	dirs := append([]string{gfs.MirrorMetaDir}, mailboat.Dirs(mailboat.Config{Users: r.users})...)
	sameFiles(r.t, r.roots[0], r.roots[1], dirs)
}

// The disk-full row's watermarks: shed below 4 MB free.
const soakLowWater, soakHighWater = 4 << 20, 6 << 20

// soakRow is one soak: the options each round boots with, the load
// started at each boot, what happens mid-traffic before the kill, the
// options of the clean reboot, and what is owed after it beyond the
// audit.
type soakRow struct {
	users         uint64
	rounds        int
	clients, msgs int
	pace          time.Duration
	options       func(r *soakRig, round int) Options
	midTraffic    func(r *soakRig, round int)
	reboot        func(r *soakRig) Options
	afterReboot   func(r *soakRig, b *Adapter)
}

var soaks = map[string]soakRow{
	// Several rounds of a fault-injected server, each killed a little
	// later into its traffic; the audit boots clean, with no faults.
	"crash-restart": {
		users: 3, rounds: 4, clients: 6, msgs: 4,
		options: func(_ *soakRig, round int) Options {
			faults := &FaultOptions{Seed: int64(100 + round), Rates: gfs.UniformRates(6)} // every class, 1 in 6 calls
			return Options{Seed: int64(round + 1), DeliverRetries: 2, Fault: faults}
		},
		midTraffic: func(_ *soakRig, round int) { time.Sleep(time.Duration(10+round*10) * time.Millisecond) },
		reboot:     func(*soakRig) Options { return Options{Seed: 999} },
	},
	// The availability drill: the published replica is permanently
	// killed mid-stream (the fail-stop kill switch — a died disk) and
	// traffic keeps committing on the survivor. Boot recovery must pick
	// the survivor by its persisted generation and resilver the stale
	// replica back.
	"mirror": {
		users: 3, rounds: 1, clients: 6, msgs: 40,
		options: func(r *soakRig, _ int) Options { return Options{Seed: 1, MirrorRoot: r.roots[1]} },
		midTraffic: func(r *soakRig, _ int) {
			time.Sleep(20 * time.Millisecond)
			r.mark()
			r.a.FailStopReplica(0)
			time.Sleep(30 * time.Millisecond)
			if st := r.a.MirrorStatus(); !st.Degraded {
				r.t.Fatalf("mirror not degraded after replica kill: %+v", st)
			}
		},
		reboot:      func(r *soakRig) Options { return Options{Seed: 2, MirrorRoot: r.roots[1]} },
		afterReboot: redundant,
	},
	// The integrity drill: with the background scrubber running, a live
	// replica's bytes are silently flipped mid-stream (a decaying disk,
	// not a died one) and a heal-scrub races the deliveries. The rot must
	// be detected, never served, and the boot scrub must come up clean.
	"scrub": {
		users: 3, rounds: 1, clients: 6, msgs: 40,
		options: func(r *soakRig, _ int) Options {
			return Options{Seed: 1, MirrorRoot: r.roots[1], Checksum: true, ScrubEvery: 10 * time.Millisecond, Metrics: obs.NewRegistry()}
		},
		midTraffic: func(r *soakRig, _ int) {
			// The first published message may not have landed yet.
			var corrupted string
			for i := 0; i < 200 && corrupted == ""; i++ {
				time.Sleep(time.Millisecond)
				corrupted = r.a.CorruptReplica(0)
			}
			if corrupted == "" {
				r.t.Fatal("no published file to corrupt; the soak exercised nothing")
			}
			r.mark()
			r.t.Logf("scrub soak: corrupted %s on replica 0", corrupted)
			if _, ok := r.a.Scrub(true); !ok {
				r.t.Fatal("checksummed mirror refused to scrub")
			}
			time.Sleep(30 * time.Millisecond)
			if r.a.IntegrityDetected() == 0 {
				r.t.Error("corruption was never detected by any read or scrub")
			}
		},
		reboot: func(r *soakRig) Options { return Options{Seed: 2, MirrorRoot: r.roots[1], Checksum: true} },
		afterReboot: func(r *soakRig, b *Adapter) {
			if rep, _, ok := b.LastScrub(); !ok || !rep.Clean() {
				r.t.Fatalf("boot scrub not clean: ran=%v report %+v", ok, rep)
			}
			redundant(r, b)
		},
	},
	// The deployment drill for the replicated pair, over real TCP: the
	// replication link is partitioned and healed, the backup process is
	// killed outright — the primary must detect the death and keep
	// acking alone — and restarted, to be re-admitted through a catch-up
	// resync. The primary is then killed and audited after a standalone
	// reboot; the two stores' mailboxes must be byte-identical.
	"replica": {
		users: 3, rounds: 1, clients: 6, msgs: 5,
		options: func(r *soakRig, _ int) Options {
			r.bootPeer()
			peer := &ReplicaOptions{Primary: true, PeerAddr: r.peerAddr, CallTimeout: time.Second, PingEvery: 25 * time.Millisecond, RetryBackoff: time.Millisecond}
			return Options{Seed: 1, SyncOnDeliver: true, SyncDirs: true, Metrics: obs.NewRegistry(), Replica: peer}
		},
		midTraffic: func(r *soakRig, _ int) {
			r.load.Wait()
			if r.replied("250") == 0 {
				r.t.Fatal("healthy phase acked nothing; the soak exercised nothing")
			}
			// Calls are dropped before the wire (Lost → OpFailed → 451):
			// clients see transient failures, never a lost ack.
			r.traffic("partition", 4, 6, 0)
			time.Sleep(20 * time.Millisecond)
			r.a.ReplTransport().Partition(true)
			time.Sleep(100 * time.Millisecond)
			r.a.ReplTransport().Partition(false)
			r.load.Wait()
			r.traffic("post-heal", 3, 4, 0)
			r.load.Wait()
			// Listener and live connections both go down; the primary's
			// failure detector latches (refused dials).
			r.traffic("kill", 4, 6, 0)
			time.Sleep(20 * time.Millisecond)
			r.closePeer()
			r.load.Wait()
			r.mark()
			r.traffic("alone", 3, 4, 0)
			r.load.Wait()
			if r.replied("250") == r.atMark {
				r.t.Fatal("primary refused all traffic with the backup dead; ack-alone failover did not engage")
			}
			// The pinger re-admits the restarted backup (a successful dial
			// heals the dead verdict) and the next replicated operation
			// trips the sequence gap into a catch-up resync. Probe until
			// the pair reports in-sync: same epoch, not resyncing, peer
			// reachable. An adapter-level delivery stores the exact bytes.
			r.bootPeer()
			r.await("the pair resyncing", 15*time.Second, func() bool {
				body := fmt.Sprintf("probe-%d", time.Now().UnixNano())
				r.note(body, "sent")
				if r.a.Deliver(0, []byte(body)) == nil {
					r.note(body, "250")
				}
				pst, bst, h := r.a.ReplNode().Status(), r.peer.ReplNode().Status(), r.a.ReplHealth()
				return pst.Epoch == bst.Epoch && !pst.Resyncing && !bst.Resyncing && h.PeerReachable && !h.Degraded
			})
			r.traffic("resynced", 4, 4, 0)
			r.load.Wait()
		},
		reboot: func(*soakRig) Options { return Options{Seed: 3, SyncOnDeliver: true, SyncDirs: true} },
		afterReboot: func(r *soakRig, _ *Adapter) {
			r.closePeer()
			sameFiles(r.t, r.roots[0], r.roots[1], mailboat.Dirs(mailboat.Config{Users: r.users})[1:])
		},
	},
	// The real thing, not the model: a store on a deliberately tiny file
	// system takes open-ended load while a ballast file fills the disk
	// past the shed low watermark. The statfs-keyed policy must degrade
	// to 452 (shed, not lost) and, once the ballast is freed, recover to
	// 250s on its own. Run it with MAILBOAT_SOAK_DIR pointing at a small
	// (≈16–64 MB) file system, e.g.:
	//
	//	mount -t tmpfs -o size=24m tmpfs /mnt/mbtiny
	//	MAILBOAT_SOAK_DIR=/mnt/mbtiny go test ./internal/mailboatd/ -run TestDiskFullSoakSMTP -v
	"disk-full": {
		// Paced so the tiny disk survives long enough to drill the phases.
		users: 8, rounds: 1, clients: 4, msgs: -1, pace: 2 * time.Millisecond,
		options:    func(*soakRig, int) Options { return diskFullOptions },
		midTraffic: diskFullDrill,
		reboot:     func(*soakRig) Options { return diskFullOptions },
	},
}

var diskFullOptions = Options{Seed: 42, SyncOnDeliver: true, SyncDirs: true, ShedLowWater: soakLowWater, ShedHighWater: soakHighWater}

func diskFullDrill(r *soakRig, _ int) {
	if _, _, ok := r.a.fs[0].StatFS(); !ok {
		r.t.Skip("statfs unavailable on this platform; the watermark soak needs it")
	}
	replied := func(code string, above int) func() bool {
		return func() bool { return r.replied(code) > above }
	}
	r.await("first acked delivery", 10*time.Second, replied("250", 0))
	ballast := filepath.Join(filepath.Dir(r.roots[0]), "ballast")
	defer os.Remove(ballast)
	fill(r.t, ballast, r.a)
	r.await("a shed 452 under disk pressure", 20*time.Second, replied("452", 0))
	// Free the space: the watermark (with hysteresis) lifts and
	// deliveries recover without any operator action.
	if err := os.Remove(ballast); err != nil {
		r.t.Fatal(err)
	}
	r.await("recovery to 250 after freeing space", 20*time.Second, replied("250", r.replied("250")))
}

// fill writes ballast until the store's file system drops below the
// low watermark (or the disk is hard-full, which also suffices).
func fill(t *testing.T, path string, a *Adapter) {
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chunk := make([]byte, 256<<10)
	for i := 0; i < 4096; i++ {
		if free, _, ok := a.fs[0].StatFS(); ok && free < soakLowWater/2 {
			return
		}
		if _, err := f.Write(chunk); err != nil {
			return // ENOSPC: as full as it gets
		}
	}
	t.Fatalf("ballast never filled the disk; is %s really a small file system?", filepath.Dir(path))
}

// runSoak drives one row of the table on a store at root.
func runSoak(t *testing.T, name, root string) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode (CI's race job)")
	}
	row := soaks[name]
	r := &soakRig{
		t: t, users: row.users, roots: [2]string{root, t.TempDir()},
		sent: map[string]bool{}, acked: map[string]bool{}, replies: map[string]int{}, atMark: -1,
	}
	for round := 0; round < row.rounds; round++ {
		r.boot(row.options(r, round))
		r.traffic(fmt.Sprintf("%s-round-%d", name, round), row.clients, row.msgs, row.pace)
		row.midTraffic(r, round)
		r.kill()
	}
	b := r.open(root, row.reboot(r))
	defer b.Close()
	r.audit(name, b)
	if row.afterReboot != nil {
		row.afterReboot(r, b)
	}
}

func TestCrashRestartSoakUnderFaults(t *testing.T)      { runSoak(t, "crash-restart", t.TempDir()) }
func TestMirrorSoakReplicaDeathMidTraffic(t *testing.T) { runSoak(t, "mirror", t.TempDir()) }
func TestScrubSoakCorruptionMidTraffic(t *testing.T)    { runSoak(t, "scrub", t.TempDir()) }
func TestReplicaSoak(t *testing.T)                      { runSoak(t, "replica", t.TempDir()) }

// Without MAILBOAT_SOAK_DIR the test skips: filling the developer's
// real disk would be rude.
func TestDiskFullSoakSMTP(t *testing.T) {
	base := os.Getenv("MAILBOAT_SOAK_DIR")
	if base == "" {
		t.Skip("set MAILBOAT_SOAK_DIR to a small scratch file system (tmpfs) to run the disk-full soak")
	}
	root := filepath.Join(base, "store")
	defer os.RemoveAll(root)
	runSoak(t, "disk-full", root)
}

// TestFaultDrillIsReplayable checks the seeded drill workflow end to
// end: two adapters over identical stores, identical traffic, and the
// same fault seed must produce identical fault logs.
func TestFaultDrillIsReplayable(t *testing.T) {
	run := func() []gfs.FaultEvent {
		a, err := NewWithOptions(t.TempDir(), Options{
			Users: 2,
			Seed:  7,
			Fault: &FaultOptions{Seed: 5, Rates: gfs.UniformRates(3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		for i := 0; i < 10; i++ {
			a.Deliver(uint64(i%2), []byte(fmt.Sprintf("drill %d", i)))
		}
		return a.FaultLog()
	}
	log1, log2 := run(), run()
	if len(log1) == 0 {
		t.Fatal("drill injected no faults")
	}
	if fmt.Sprint(log1) != fmt.Sprint(log2) {
		t.Fatalf("same seed, different drills:\n%v\nvs\n%v", log1, log2)
	}
}

// TestDeliverReportsTransientFailure: with every append failing, the
// adapter must return ErrTransient (the SMTP layer turns that into a
// 451) and leave no trace of the failed delivery.
func TestDeliverReportsTransientFailure(t *testing.T) {
	root := t.TempDir()
	var rates [gfs.NumFaultOps]uint64
	rates[gfs.FaultAppend] = 1
	a, err := NewWithOptions(root, Options{
		Users:          1,
		Fault:          &FaultOptions{Rates: rates},
		DeliverRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Deliver(0, []byte("doomed")); err != ErrTransient {
		t.Fatalf("Deliver under total append failure: %v, want ErrTransient", err)
	}
	msgs, _ := a.Pickup(0)
	a.Unlock(0)
	if len(msgs) != 0 {
		t.Fatalf("failed delivery left messages: %+v", msgs)
	}
	entries, err := os.ReadDir(filepath.Join(root, mailboat.SpoolDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed delivery left %d spool files", len(entries))
	}
}

// TestRandUint64ConcurrentAndDeterministic covers the PRNG fix: the
// lock-free generator must neither race nor repeat values under
// concurrency, and must be reproducible for sequential callers.
func TestRandUint64ConcurrentAndDeterministic(t *testing.T) {
	mk := func() *Adapter {
		a, err := New(t.TempDir(), 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		return a
	}

	// Sequential determinism: same seed, same stream.
	a1, a2 := mk(), mk()
	for i := 0; i < 100; i++ {
		if v1, v2 := a1.RandUint64(1<<62), a2.RandUint64(1<<62); v1 != v2 {
			t.Fatalf("draw %d: %d != %d", i, v1, v2)
		}
	}

	// Concurrent draws: no duplicates across goroutines (the counter
	// guarantees distinct inputs; SplitMix64 is a bijection).
	a := mk()
	const goroutines, draws = 8, 1000
	results := make(chan []uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			out := make([]uint64, draws)
			for i := range out {
				out[i] = a.RandUint64(1 << 62)
			}
			results <- out
		}()
	}
	seen := make(map[uint64]bool, goroutines*draws)
	for g := 0; g < goroutines; g++ {
		for _, v := range <-results {
			if seen[v] {
				t.Fatal("duplicate draw under concurrency")
			}
			seen[v] = true
		}
	}
}
