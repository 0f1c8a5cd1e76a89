package gfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/machine"
)

func newOSFS(t *testing.T, dirs []string) *OS {
	t.Helper()
	o, err := NewOS(t.TempDir(), dirs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.CloseAll)
	return o
}

func TestOSCreateWriteReadBack(t *testing.T) {
	o := newOSFS(t, []string{"spool"})
	n := NewNative(1)
	fd, ok := o.Create(n, "spool", "msg")
	if !ok {
		t.Fatal("create failed")
	}
	o.Append(n, fd, []byte("hello "))
	o.Append(n, fd, []byte("world"))
	o.Close(n, fd)

	rfd, ok := o.Open(n, "spool", "msg")
	if !ok {
		t.Fatal("open failed")
	}
	defer o.Close(n, rfd)
	if got := o.Size(n, rfd); got != 11 {
		t.Fatalf("size=%d", got)
	}
	if got := string(o.ReadAt(n, rfd, 0, 100)); got != "hello world" {
		t.Fatalf("read %q", got)
	}
	if got := string(o.ReadAt(n, rfd, 6, 5)); got != "world" {
		t.Fatalf("partial read %q", got)
	}
	if got := o.ReadAt(n, rfd, 11, 5); len(got) != 0 {
		t.Fatalf("read past EOF: %q", got)
	}
}

func TestOSCreateExistingFails(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	fd, ok := o.Create(n, "d", "x")
	if !ok {
		t.Fatal("first create failed")
	}
	o.Close(n, fd)
	if _, ok := o.Create(n, "d", "x"); ok {
		t.Fatal("duplicate create succeeded")
	}
}

func TestOSLinkAndDelete(t *testing.T) {
	o := newOSFS(t, []string{"spool", "u0"})
	n := NewNative(1)
	fd, _ := o.Create(n, "spool", "tmp")
	o.Append(n, fd, []byte("mail"))
	o.Close(n, fd)
	if !o.Link(n, "spool", "tmp", "u0", "msg1") {
		t.Fatal("link failed")
	}
	if o.Link(n, "spool", "tmp", "u0", "msg1") {
		t.Fatal("link over existing succeeded")
	}
	if !o.Delete(n, "spool", "tmp") {
		t.Fatal("delete failed")
	}
	rfd, ok := o.Open(n, "u0", "msg1")
	if !ok {
		t.Fatal("open after unlink of other name failed")
	}
	defer o.Close(n, rfd)
	if got := string(o.ReadAt(n, rfd, 0, 10)); got != "mail" {
		t.Fatalf("read %q", got)
	}
}

func TestOSListSortedAndSkipsDirs(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	for _, name := range []string{"zz", "aa"} {
		fd, _ := o.Create(n, "d", name)
		o.Close(n, fd)
	}
	got := o.List(n, "d")
	if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
		t.Fatalf("list=%v", got)
	}
}

func TestOSOpenMissingReturnsFalse(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	if _, ok := o.Open(n, "d", "ghost"); ok {
		t.Fatal("open of missing file succeeded")
	}
	if o.Delete(n, "d", "ghost") {
		t.Fatal("delete of missing file succeeded")
	}
}

// TestOSSyncAndSyncDirHappyPath: barriers on live descriptors and
// known directories report success.
func TestOSSyncAndSyncDirHappyPath(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	fd, ok := o.Create(n, "d", "f")
	if !ok {
		t.Fatal("create failed")
	}
	o.Append(n, fd, []byte("data"))
	if !o.Sync(n, fd) {
		t.Fatal("fsync of a live descriptor failed")
	}
	o.Close(n, fd)
	if !o.SyncDir(n, "d") {
		t.Fatal("directory fsync failed")
	}
}

// TestOSSyncOnClosedFDReportsFailure: fsync on a closed descriptor must
// report false, never panic — it is the caller's signal that the bytes
// may not be durable.
func TestOSSyncOnClosedFDReportsFailure(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	fd, _ := o.Create(n, "d", "f")
	o.Close(n, fd)
	if o.Sync(n, fd) {
		t.Fatal("fsync of a closed descriptor reported success")
	}
}

// TestOSSyncDirOnVanishedDirReportsFailure: if the directory cannot be
// opened for the fsync (here: removed out from under the cached layout,
// as a disk-level fault would present), SyncDir reports false — a
// failed directory barrier, not a panic and not a silent success.
func TestOSSyncDirOnVanishedDirReportsFailure(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	if err := os.RemoveAll(filepath.Join(o.Path(), "d")); err != nil {
		t.Fatal(err)
	}
	if o.SyncDir(n, "d") {
		t.Fatal("SyncDir on a vanished directory reported success")
	}
}

// TestOSSyncDirUnknownDirPanics: an unknown directory is a fixed-layout
// violation — a programming error, not a runtime fault — and panics
// like every other operation on the OS backend.
func TestOSSyncDirUnknownDirPanics(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	n := NewNative(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SyncDir on an unknown directory did not panic")
		}
	}()
	o.SyncDir(n, "nope")
}

func TestNativeRandBounded(t *testing.T) {
	n := NewNative(7)
	for i := 0; i < 1000; i++ {
		if v := n.RandUint64(10); v >= 10 {
			t.Fatalf("rand out of bounds: %d", v)
		}
	}
}

// TestBackendEquivalence drives identical valid operation sequences
// against the model and the OS backend and requires identical observable
// results — the reproduction's version of trusting that the Goose model
// matches the running file system (§9.2's TCB discussion). The OS
// backend runs every script twice: with the whole layout cached, and
// with a handle budget of one, where nearly every op reopens its
// directory and evicts another.
func TestBackendEquivalence(t *testing.T) {
	dirs := []string{"spool", "u0", "u1"}
	names := []string{"a", "b", "c"}

	fullReads, shortReads := 0, 0 // what the scripts exercised, over all seeds
	for seed := int64(1); seed <= 40; seed++ {
		osfs := newOSFS(t, dirs)
		lazy, err := NewOSLimited(t.TempDir(), dirs, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lazy.CloseAll)
		n := NewNative(seed)

		// Generate a random but always-valid op script.
		type rec struct {
			op   string
			outs []string
		}
		var osLog, lazyLog, mLog []rec

		drive := func(sys System, th T, log *[]rec) {
			rng := NewNative(seed) // same decisions on both backends
			type open struct {
				fd      FD
				append_ bool
			}
			var fds []open
			exists := map[string]bool{} // "dir/name"
			for step := 0; step < 150; step++ {
				dir := dirs[rng.RandUint64(uint64(len(dirs)))]
				name := names[rng.RandUint64(uint64(len(names)))]
				switch rng.RandUint64(14) { // appends and reads three times as likely
				case 0:
					fd, ok := sys.Create(th, dir, name)
					*log = append(*log, rec{op: "create " + dir + "/" + name, outs: []string{boolStr(ok)}})
					if ok {
						exists[dir+"/"+name] = true
						fds = append(fds, open{fd: fd, append_: true})
					}
				case 1, 10, 11:
					if len(fds) == 0 {
						continue
					}
					f := fds[rng.RandUint64(uint64(len(fds)))]
					if !f.append_ {
						continue
					}
					// Up to MaxAppend bytes a call: a few appends make a
					// multi-KiB file.
					data := bytes.Repeat([]byte(name+"-data"), 1+int(rng.RandUint64(MaxAppend/6)))
					ok := sys.Append(th, f.fd, data)
					*log = append(*log, rec{op: "append", outs: []string{boolStr(ok)}})
				case 2:
					fd, ok := sys.Open(th, dir, name)
					*log = append(*log, rec{op: "open " + dir + "/" + name, outs: []string{boolStr(ok)}})
					if ok {
						fds = append(fds, open{fd: fd})
					}
				case 3, 12, 13:
					if len(fds) == 0 {
						continue
					}
					i := rng.RandUint64(uint64(len(fds)))
					f := fds[i]
					if f.append_ {
						continue
					}
					// Offsets and lengths on both sides of end of file.
					off, n := rng.RandUint64(3*MaxAppend), rng.RandUint64(2*MaxAppend)
					data := sys.ReadAt(th, f.fd, off, n)
					*log = append(*log, rec{op: fmt.Sprintf("read %d+%d", off, n), outs: []string{string(data)}})
					if len(data) > 0 && uint64(len(data)) == n {
						fullReads++
					} else if len(data) > 0 {
						shortReads++
					}
				case 4:
					ok := sys.Delete(th, dir, name)
					*log = append(*log, rec{op: "delete " + dir + "/" + name, outs: []string{boolStr(ok)}})
					delete(exists, dir+"/"+name)
				case 5:
					dir2 := dirs[rng.RandUint64(uint64(len(dirs)))]
					name2 := names[rng.RandUint64(uint64(len(names)))]
					if !exists[dir+"/"+name] {
						continue
					}
					ok := sys.Link(th, dir, name, dir2, name2)
					*log = append(*log, rec{op: "link", outs: []string{boolStr(ok)}})
					if ok {
						exists[dir2+"/"+name2] = true
					}
				case 6:
					ls := sys.List(th, dir)
					*log = append(*log, rec{op: "list " + dir, outs: ls})
				case 7:
					if len(fds) == 0 {
						continue
					}
					f := fds[rng.RandUint64(uint64(len(fds)))]
					*log = append(*log, rec{op: "size", outs: []string{fmt.Sprint(sys.Size(th, f.fd))}})
				case 8:
					if len(fds) == 0 {
						continue
					}
					f := fds[rng.RandUint64(uint64(len(fds)))]
					if !f.append_ {
						continue
					}
					*log = append(*log, rec{op: "sync", outs: []string{boolStr(sys.Sync(th, f.fd))}})
				case 9:
					*log = append(*log, rec{op: "syncdir " + dir, outs: []string{boolStr(sys.SyncDir(th, dir))}})
				}
			}
			for _, f := range fds {
				sys.Close(th, f.fd)
			}
		}

		drive(osfs, n, &osLog)
		drive(lazy, n, &lazyLog)

		// Model run inside one era.
		mm := machine.New(machine.Options{})
		mfs := NewModel(mm, dirs)
		res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			drive(mfs, mt, &mLog)
		})
		if res.Err != nil {
			t.Fatalf("seed %d: model violation: %v", seed, res.Err)
		}

		for _, run := range []struct {
			backend string
			log     []rec
		}{{"os", osLog}, {"os(budget 1)", lazyLog}} {
			osLog := run.log
			if len(osLog) != len(mLog) {
				t.Fatalf("seed %d: log lengths differ: %s=%d model=%d", seed, run.backend, len(osLog), len(mLog))
			}
			for i := range osLog {
				if osLog[i].op != mLog[i].op {
					t.Fatalf("seed %d step %d: ops diverge: %q vs %q", seed, i, osLog[i].op, mLog[i].op)
				}
				if len(osLog[i].outs) != len(mLog[i].outs) {
					t.Fatalf("seed %d step %d (%s on %s): outputs differ: %v vs %v",
						seed, i, osLog[i].op, run.backend, osLog[i].outs, mLog[i].outs)
				}
				for k := range osLog[i].outs {
					if osLog[i].outs[k] != mLog[i].outs[k] {
						t.Fatalf("seed %d step %d (%s on %s): output %d differs: %q vs %q",
							seed, i, osLog[i].op, run.backend, k, osLog[i].outs[k], mLog[i].outs[k])
					}
				}
			}
		}
	}
	t.Logf("over three backends: %d reads inside a file, %d cut short by end of file", fullReads, shortReads)
	if fullReads < 30 || shortReads < 30 {
		t.Errorf("scripts too weak: %d reads inside a file and %d cut short by end of file, want 30 of each",
			fullReads, shortReads)
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TestOSLimitedHandleCache: the bounded directory-handle cache serves
// a layout far larger than its budget — every op works on every dir,
// cold handles are evicted and transparently reopened, and the open
// handle count never exceeds budget + in-flight ops.
func TestOSLimitedHandleCache(t *testing.T) {
	th := NewNative(1)
	dirs := make([]string, 64)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("d%02d", i)
	}
	o, err := NewOSLimited(t.TempDir(), dirs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseAll()

	// Round-robin far past the budget: each touch evicts the coldest.
	for round := 0; round < 3; round++ {
		for _, d := range dirs {
			fd, ok := o.Create(th, d, fmt.Sprintf("m%d", round))
			if !ok {
				t.Fatalf("create in %s round %d failed", d, round)
			}
			if !o.Append(th, fd, []byte("x")) {
				t.Fatalf("append in %s failed", d)
			}
			o.Close(th, fd)
		}
	}
	if got := len(o.roots); got > 4 {
		t.Errorf("cache holds %d handles, budget 4", got)
	}
	// Everything written through evicted-and-reopened handles is there.
	for _, d := range dirs {
		if ls := o.List(th, d); len(ls) != 3 {
			t.Errorf("%s lists %v, want 3 files", d, ls)
		}
	}
	if got := len(o.roots); got > 4 {
		t.Errorf("cache holds %d handles after list sweep, budget 4", got)
	}
	// The fixed-layout contract survives the lazy regime.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown dir must still panic in the lazy regime")
			}
		}()
		o.List(th, "never-declared")
	}()
}

// TestOSLimitedConcurrent hammers a small budget from many goroutines:
// eviction must never close a root out from under an op in flight
// (refcounting), and every write must land.
func TestOSLimitedConcurrent(t *testing.T) {
	th := NewNative(1)
	dirs := make([]string, 32)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("c%02d", i)
	}
	o, err := NewOSLimited(t.TempDir(), dirs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseAll()

	var wg sync.WaitGroup
	errCh := make(chan string, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := dirs[(w*50+i)%len(dirs)]
				name := fmt.Sprintf("w%d-%d", w, i)
				fd, ok := o.Create(th, d, name)
				if !ok {
					errCh <- "create " + d + "/" + name
					continue
				}
				if !o.Append(th, fd, []byte(name)) {
					errCh <- "append " + d + "/" + name
				}
				if !o.Sync(th, fd) {
					errCh <- "sync " + d + "/" + name
				}
				o.Close(th, fd)
				if !o.SyncDir(th, d) {
					errCh <- "syncdir " + d
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Errorf("op failed under eviction pressure: %s", e)
	}
	total := 0
	for _, d := range dirs {
		total += len(o.List(th, d))
	}
	if total != 8*50 {
		t.Errorf("found %d files, want %d", total, 8*50)
	}
}

// TestOSEagerWithinBudget: a layout within the budget is fully cached
// at boot (the original eager behavior) and never evicts.
func TestOSEagerWithinBudget(t *testing.T) {
	th := NewNative(1)
	o, err := NewOSLimited(t.TempDir(), []string{"a", "b", "c"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseAll()
	if got := len(o.roots); got != 3 {
		t.Fatalf("eager boot cached %d handles, want 3", got)
	}
	for i := 0; i < 20; i++ {
		fd, ok := o.Create(th, "a", fmt.Sprintf("f%d", i))
		if !ok {
			t.Fatal("create failed")
		}
		o.Close(th, fd)
	}
	if got := len(o.roots); got != 3 {
		t.Errorf("eager cache evicted: %d handles, want 3", got)
	}
}

// treeSnapshot maps every path under root to what is there: a regular
// file's bytes, a symlink's target, "dir" for a directory.
func treeSnapshot(t *testing.T, root string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir():
			snap[path] = "dir"
		case d.Type()&os.ModeSymlink != 0:
			target, err := os.Readlink(path)
			snap[path] = "-> " + target
			return err
		default:
			data, err := os.ReadFile(path)
			snap[path] = "file " + string(data)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestOSNamesStayInsideTheirDirectory: a name is one path component and
// is never followed as a symlink, so no call reaches a file outside the
// directory it was given — spool/victim here, which every refused name
// below would otherwise open, unlink, overwrite or corrupt.
func TestOSNamesStayInsideTheirDirectory(t *testing.T) {
	o := newOSFS(t, []string{"spool", "u0"})
	th := NewNative(1)
	for _, f := range [][2]string{{"spool", "victim"}, {"u0", "real"}} {
		fd, ok := o.Create(th, f[0], f[1])
		if !ok || !o.Append(th, fd, []byte("contents of "+f[1])) {
			t.Fatalf("preparing %s/%s failed", f[0], f[1])
		}
		o.Close(th, fd)
	}
	victim := filepath.Join(o.Path(), "spool", "victim")
	symlinks := map[string]string{ // name in u0 → target
		"rel":    "../spool/victim",
		"abs":    victim,
		"dangle": "../spool/planted",
		"updir":  "../spool",
	}
	for name, target := range symlinks {
		if err := os.Symlink(target, filepath.Join(o.Path(), "u0", name)); err != nil {
			t.Skipf("cannot plant symlinks here: %v", err)
		}
	}
	before := treeSnapshot(t, o.Path())

	refused := []string{"", ".", "..", "a/b", "real/", "/real", "../spool/victim", "updir/victim", victim, "re\x00al"}
	for name := range symlinks {
		refused = append(refused, name)
	}
	for _, name := range refused {
		if fd, ok := o.Create(th, "u0", name); ok {
			o.Close(th, fd)
			t.Errorf("Create(%q) succeeded", name)
		}
		if fd, ok := o.Open(th, "u0", name); ok {
			o.Close(th, fd)
			t.Errorf("Open(%q) succeeded", name)
		}
		if o.CorruptFile(th, "u0", name, CorruptFlip) || o.CorruptFile(th, "u0", name, CorruptTruncate) {
			t.Errorf("CorruptFile(%q) succeeded", name)
		}
		if _, planted := symlinks[name]; planted {
			// Unlinking or hard-linking the symlink itself stays inside
			// u0; what must not happen is following it, checked above.
			continue
		}
		if o.Delete(th, "u0", name) {
			t.Errorf("Delete(%q) succeeded", name)
		}
		if o.Link(th, "u0", name, "u0", "fresh") {
			t.Errorf("Link from %q succeeded", name)
		}
		if o.Link(th, "u0", "real", "u0", name) {
			t.Errorf("Link to %q succeeded", name)
		}
	}
	after := treeSnapshot(t, o.Path())
	for path, was := range before {
		if is, ok := after[path]; !ok || is != was {
			t.Errorf("%s changed: was %q, is %q (present %v)", path, was, is, ok)
		}
	}
	for path := range after {
		if _, ok := before[path]; !ok {
			t.Errorf("%s appeared", path)
		}
	}

	// The same names are fine as what they are: ordinary file names.
	if !o.Link(th, "u0", "real", "u0", "fresh") || !o.Delete(th, "u0", "fresh") {
		t.Error("link and delete of an ordinary name failed")
	}
}

// TestOSLinkUnknownDirPanics: Link checks both directories against the
// fixed layout, like every other operation.
func TestOSLinkUnknownDirPanics(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	th := NewNative(1)
	fd, _ := o.Create(th, "d", "x")
	o.Close(th, fd)
	for _, tc := range []struct{ what, from, to string }{
		{"from an unknown directory", "nope", "d"},
		{"to an unknown directory", "d", "nope"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Link %s did not panic", tc.what)
				}
			}()
			o.Link(th, tc.from, "x", tc.to, "y")
		}()
	}
	// The panic released its pin: the handle still closes with the cache.
	if got := o.roots["d"].refs; got != 0 {
		t.Errorf("d still pinned %d times after the panics", got)
	}
}

// openDescriptors counts this process's open descriptors.
func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	return len(fds)
}

// TestOSLeavesNoDescriptors runs full file life cycles — and the calls
// that fail — from several goroutines over a handle budget of two, so
// directory descriptors are evicted under ops in flight the whole time,
// and requires the process to hold exactly as many descriptors after
// CloseAll as before NewOS. Under -race it is also the check that pin
// and unpin order every access to the cache.
func TestOSLeavesNoDescriptors(t *testing.T) {
	openDescriptors(t) // the first count opens what the runtime keeps
	start := openDescriptors(t)

	dirs := make([]string, 12)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("b%02d", i)
	}
	o, err := NewOSLimited(t.TempDir(), dirs, 2)
	if err != nil {
		t.Fatal(err)
	}
	const workers, cycles = 4, 600
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewNative(int64(w))
			for i := 0; i < cycles; i++ {
				from, to := dirs[(w+i)%len(dirs)], dirs[(w+3*i+1)%len(dirs)]
				name := fmt.Sprintf("w%d-%d", w, i)
				fd, ok := o.Create(th, from, name)
				if !ok {
					t.Errorf("create %s/%s failed", from, name)
					return
				}
				ok = o.Append(th, fd, []byte(name)) && o.Sync(th, fd)
				o.Close(th, fd)
				ok = ok && o.Link(th, from, name, to, name) && o.SyncDir(th, to)
				if _, again := o.Create(th, from, name); again {
					t.Errorf("second create of %s/%s succeeded", from, name)
				}
				if _, ghost := o.Open(th, from, name+"-ghost"); ghost {
					t.Errorf("open of an absent name succeeded")
				}
				if o.Link(th, from, name, to, name) || o.Delete(th, to, name+"-ghost") {
					t.Errorf("link over %s/%s or delete of an absent name succeeded", to, name)
				}
				o.List(th, to)
				rfd, opened := o.Open(th, to, name)
				if ok = ok && opened; opened {
					ok = string(o.ReadAt(th, rfd, 0, 64)) == name && o.Size(th, rfd) == uint64(len(name))
					o.Close(th, rfd)
				}
				if !(ok && o.Delete(th, from, name) && o.Delete(th, to, name)) {
					t.Errorf("cycle %d of worker %d failed", i, w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	o.CloseAll()
	if end := openDescriptors(t); end != start {
		t.Errorf("%d descriptors open after CloseAll, %d before NewOS", end, start)
	}
}
