package mailboatd

// The disk-full soak: the real thing, not the model. A store on a
// deliberately tiny file system (CI mounts a small tmpfs) takes
// concurrent SMTP load while a ballast file fills the disk past the
// shed low watermark. The statfs-keyed policy must degrade to 452
// (shed, not lost: every acked 250 stays durable, every refusal leaves
// the store untouched), and once the ballast is freed the stack must
// recover to 250s on its own. The post-run audit reboots the store
// through full crash recovery and demands the byte-exact acked set:
// nothing acked lost, nothing served that was never acked.
//
// Run it with MAILBOAT_SOAK_DIR pointing at a small (≈16–64 MB)
// file system, e.g.:
//
//	mount -t tmpfs -o size=24m tmpfs /mnt/mbtiny
//	MAILBOAT_SOAK_DIR=/mnt/mbtiny go test ./internal/mailboatd/ -run TestDiskFullSoakSMTP -v
//
// Without the env var the test skips: filling the developer's real
// disk would be rude.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smtp"
)

const (
	soakUsers     = 8
	soakWorkers   = 4
	soakLowWater  = 4 << 20 // shed below 4 MB free
	soakHighWater = 6 << 20
)

// smtpDeliver runs one MAIL/RCPT/DATA round on an open connection and
// returns the reply code prefix ("250", "452", "451", ...).
func smtpDeliver(conn net.Conn, r *bufio.Reader, user int, body string) (string, error) {
	step := func(cmd, want string) error {
		if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
			return err
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if !strings.HasPrefix(resp, want) {
			return fmt.Errorf("%s: %q", cmd, strings.TrimSpace(resp))
		}
		return nil
	}
	if err := step("MAIL FROM:<soak@x>", "250"); err != nil {
		return "", err
	}
	if err := step(fmt.Sprintf("RCPT TO:<user%d@x>", user), "250"); err != nil {
		return "", err
	}
	if err := step("DATA", "354"); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(conn, "%s\r\n.\r\n", body); err != nil {
		return "", err
	}
	resp, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(resp) < 3 {
		return "", fmt.Errorf("short reply %q", resp)
	}
	return resp[:3], nil
}

func TestDiskFullSoakSMTP(t *testing.T) {
	base := os.Getenv("MAILBOAT_SOAK_DIR")
	if base == "" {
		t.Skip("set MAILBOAT_SOAK_DIR to a small scratch file system (tmpfs) to run the disk-full soak")
	}
	root := filepath.Join(base, "store")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(root)

	opts := Options{
		Users:         soakUsers,
		Seed:          42,
		SyncOnDeliver: true,
		SyncDirs:      true,
		ShedLowWater:  soakLowWater,
		ShedHighWater: soakHighWater,
	}
	a, err := NewWithOptions(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.fs[0].StatFS(); !ok {
		a.Close()
		t.Skip("statfs unavailable on this platform; the watermark soak needs it")
	}

	srv := smtp.NewServer(a, soakUsers)
	srv.ReadTimeout = 10 * time.Second
	srv.WriteTimeout = 10 * time.Second
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	defer srv.Close()
	smtpAddr := sl.Addr().String()

	var (
		acked    sync.Map // body -> true, on 250
		n250     atomic.Int64
		n452     atomic.Int64
		n451     atomic.Int64
		connErrs atomic.Int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < soakWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var conn net.Conn
			var r *bufio.Reader
			redial := func() bool {
				if conn != nil {
					conn.Close()
				}
				c, err := net.Dial("tcp", smtpAddr)
				if err != nil {
					connErrs.Add(1)
					return false
				}
				conn, r = c, bufio.NewReader(c)
				if banner, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(banner, "220") {
					connErrs.Add(1)
					return false
				}
				if _, err := fmt.Fprintf(conn, "HELO soak\r\n"); err != nil {
					return false
				}
				if resp, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(resp, "250") {
					return false
				}
				return true
			}
			if !redial() {
				return
			}
			defer conn.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf("soak-w%d-%d", w, i)
				code, err := smtpDeliver(conn, r, (w+i)%soakUsers, body)
				if err != nil {
					if !redial() {
						time.Sleep(10 * time.Millisecond)
					}
					continue
				}
				switch code {
				case "250":
					acked.Store(body, true)
					n250.Add(1)
				case "452":
					n452.Add(1)
				case "451":
					n451.Add(1)
				}
				// An open loop this is not; pace the workers so the
				// tiny disk survives long enough to drill the phases.
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	await := func(what string, deadline time.Duration, done func() bool) {
		t.Helper()
		limit := time.Now().Add(deadline)
		for !done() {
			if time.Now().After(limit) {
				close(stop)
				wg.Wait()
				t.Fatalf("soak: %s never happened (250=%d 452=%d 451=%d connErrs=%d, statfs=%s)",
					what, n250.Load(), n452.Load(), n451.Load(), connErrs.Load(), statfsDesc(a))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Phase 1: the store accepts mail.
	await("first acked delivery", 10*time.Second, func() bool { return n250.Load() > 0 })

	// Phase 2: fill the disk past the low watermark mid-load.
	ballast := filepath.Join(base, "ballast")
	fill(t, ballast, a)
	defer os.Remove(ballast)

	// Phase 3: the stack degrades to 452 — shed, not lost or hung.
	await("a shed 452 under disk pressure", 20*time.Second, func() bool { return n452.Load() > 0 })

	// Phase 4: free the space; the watermark (with hysteresis) lifts
	// and deliveries recover without any operator action.
	if err := os.Remove(ballast); err != nil {
		t.Fatal(err)
	}
	before := n250.Load()
	await("recovery to 250 after freeing space", 20*time.Second, func() bool { return n250.Load() > before })

	close(stop)
	wg.Wait()

	// Audit: reboot through full crash recovery, then the byte-exact
	// acked-set check — zero acked loss, zero fabrication.
	a.Close()
	b, err := NewWithOptions(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	present := map[string]bool{}
	for u := uint64(0); u < soakUsers; u++ {
		msgs, err := b.Pickup(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			body := strings.TrimRight(m.Contents, "\n")
			present[body] = true
			if !strings.HasPrefix(body, "soak-w") {
				t.Errorf("store served bytes nobody sent: %q", body)
			}
		}
		b.Unlock(u)
	}
	lost := 0
	acked.Range(func(k, _ any) bool {
		if !present[k.(string)] {
			lost++
			t.Errorf("acked delivery lost after disk-full soak: %q", k)
		}
		return true
	})
	t.Logf("soak: %d acked (all present), %d shed with 452, %d transient 451, %d conn errors; lost=%d",
		n250.Load(), n452.Load(), n451.Load(), connErrs.Load(), lost)
	if n452.Load() == 0 {
		t.Error("no delivery was shed; the drill exercised nothing")
	}
}

// fill writes ballast until the store's file system drops below the
// low watermark (or the disk is hard-full, which also suffices).
func fill(t *testing.T, path string, a *Adapter) {
	t.Helper()
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

func statfsDesc(a *Adapter) string {
	free, total, ok := a.fs[0].StatFS()
	if !ok {
		return "unavailable"
	}
	return fmt.Sprintf("%d/%d free", free, total)
}
