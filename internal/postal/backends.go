package postal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cmail"
	"repro/internal/gfs"
	"repro/internal/gomail"
	"repro/internal/mailboat"
)

// RAMDir returns a RAM-backed scratch directory when one is available
// (§9.3 runs on tmpfs "to keep disk performance from being the limiting
// factor"); it falls back to the default temp directory.
func RAMDir() string {
	for _, d := range []string{"/dev/shm", "/run/shm"} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d
		}
	}
	return os.TempDir()
}

// MailboatBackend adapts the verified Mailboat library (on the real
// file system via gfs.OS) to the postal workload.
type MailboatBackend struct {
	fs  *gfs.OS
	mb  *mailboat.Mailboat
	ths []*gfs.Native
}

// NewMailboatBackend builds a fresh store under root for the given
// worker count. Unless noFsync is set, the library runs with the full
// checked sync discipline (fsync spool data, fsync the mailbox
// directory before acking); noFsync is the honest fast mode whose
// weaker contract is prefix durability.
func NewMailboatBackend(root string, users uint64, workers int, seed int64, noFsync bool) (*MailboatBackend, error) {
	cfg := mailboat.Config{
		Users:         users,
		RandBound:     1 << 62,
		SyncOnDeliver: !noFsync,
		SyncDirs:      !noFsync,
	}
	fs, err := gfs.NewOS(root, mailboat.Dirs(cfg))
	if err != nil {
		return nil, err
	}
	b := &MailboatBackend{fs: fs}
	b.ths = make([]*gfs.Native, workers)
	for i := range b.ths {
		b.ths[i] = gfs.NewNative(seed + int64(i)*104729)
	}
	b.mb = mailboat.Init(b.ths[0], nil, fs, cfg)
	return b, nil
}

// Close releases cached directory handles.
func (b *MailboatBackend) Close() { b.fs.CloseAll() }

// Deliver implements Backend.
func (b *MailboatBackend) Deliver(w int, user uint64, msg []byte) error {
	b.mb.Deliver(b.ths[w], nil, user, msg)
	return nil
}

// Pickup implements Backend.
func (b *MailboatBackend) Pickup(w int, user uint64) ([]mailboat.Message, error) {
	return b.mb.Pickup(b.ths[w], nil, user), nil
}

// Delete implements Backend.
func (b *MailboatBackend) Delete(w int, user uint64, id string) error {
	b.mb.Delete(b.ths[w], nil, user, id)
	return nil
}

// Unlock implements Backend.
func (b *MailboatBackend) Unlock(w int, user uint64) {
	b.mb.Unlock(b.ths[w], nil, user)
}

// baseline is the surface the GoMail and simulated-CMAIL servers share.
type baseline interface {
	Deliver(rng *rand.Rand, user uint64, msg []byte) error
	Pickup(user uint64) ([]mailboat.Message, error)
	Delete(user uint64, id string) error
	Unlock(user uint64)
}

// baselineBackend adapts a baseline server, giving each worker its own
// PRNG for the server's file names.
type baselineBackend struct {
	s    baseline
	rngs []*rand.Rand
}

func newBaselineBackend(s baseline, workers int, seed int64) *baselineBackend {
	b := &baselineBackend{s: s, rngs: make([]*rand.Rand, workers)}
	for i := range b.rngs {
		b.rngs[i] = rand.New(rand.NewSource(seed + int64(i)*104729))
	}
	return b
}

func (b *baselineBackend) Deliver(w int, user uint64, msg []byte) error {
	return b.s.Deliver(b.rngs[w], user, msg)
}

func (b *baselineBackend) Pickup(_ int, user uint64) ([]mailboat.Message, error) {
	return b.s.Pickup(user)
}

func (b *baselineBackend) Delete(_ int, user uint64, id string) error { return b.s.Delete(user, id) }

func (b *baselineBackend) Unlock(_ int, user uint64) { b.s.Unlock(user) }

// servers names every backend newBackend builds, in the Figure 11
// sweep's default order.
var servers = []string{"mailboat", "gomail", "cmail"}

// newBackend builds the named backend under a fresh subdirectory of
// base. The mailboat backend runs with the checked sync discipline
// unless noFsync is set (mailbench -no-fsync): no spool fsync, no
// directory fsync, so an acked delivery may be rolled back by an OS
// crash and the checked contract weakens to prefix durability. The
// gomail and cmail baselines have their own durability story and
// ignore the knob.
func newBackend(name, base string, users uint64, workers int, seed int64, noFsync bool) (Backend, func(), error) {
	if err := knownServer(name); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(base, "mailbench-"+name+"-")
	if err != nil {
		return nil, nil, err
	}
	store := filepath.Join(root, "store")
	cleanup := func() { os.RemoveAll(root) }
	var b Backend
	switch name {
	case "mailboat":
		var mb *MailboatBackend
		if mb, err = NewMailboatBackend(store, users, workers, seed, noFsync); err == nil {
			b, cleanup = mb, func() { mb.Close(); os.RemoveAll(root) }
		}
	case "gomail":
		var s *gomail.Server
		if s, err = gomail.New(store, users); err == nil {
			b = newBaselineBackend(s, workers, seed)
		}
	case "cmail":
		var s *cmail.Server
		if s, err = cmail.New(store, users, 0); err == nil {
			b = newBaselineBackend(s, workers, seed)
		}
	}
	if err != nil {
		os.RemoveAll(root)
		return nil, nil, err
	}
	return b, cleanup, nil
}

// knownServer refuses a name newBackend cannot build.
func knownServer(name string) error {
	if slices.Contains(servers, name) {
		return nil
	}
	return fmt.Errorf("unknown server %q (known: %s)", name, strings.Join(servers, ", "))
}
