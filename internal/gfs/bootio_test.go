package gfs

import (
	"fmt"
	"testing"

	"repro/internal/machine"
)

// countingFS counts the calls that reach one replica's backend from
// below its envelope layer — the I/O a boot actually costs.
type countingFS struct {
	System
	opens                     map[string]int // per "dir/name"
	creates, deletes, appends int
}

func (c *countingFS) Open(t T, dir, name string) (FD, bool) {
	c.opens[dir+"/"+name]++
	return c.System.Open(t, dir, name)
}

func (c *countingFS) Create(t T, dir, name string) (FD, bool) {
	c.creates++
	return c.System.Create(t, dir, name)
}

func (c *countingFS) Delete(t T, dir, name string) bool {
	c.deletes++
	return c.System.Delete(t, dir, name)
}

func (c *countingFS) Append(t T, fd FD, data []byte) bool {
	c.appends++
	return c.System.Append(t, fd, data)
}

func (c *countingFS) reset() {
	c.opens, c.creates, c.deletes, c.appends = map[string]int{}, 0, 0, 0
}

func (c *countingFS) totalOpens() (n int) {
	for _, k := range c.opens {
		n += k
	}
	return n
}

// TestBootIOBudget pins what boot recovery reads. A mirrored,
// checksummed store of N sealed files (and one generation marker per
// replica) resilvers with exactly one open per file per replica and no
// write of any kind on a healthy pair — the pass's own read is the
// integrity gate, the replica comparison and the scrub report all at
// once. With one file rotten on replica 1, exactly that file is read a
// second time (the verify-after-write of the one file the pass
// rewrote), and nothing else is touched.
func TestBootIOBudget(t *testing.T) {
	const files = 8
	dirs := []string{"box"}
	for _, rot := range []string{"", "box/f3"} {
		t.Run("rot="+rot, func(t *testing.T) {
			mm := machine.New(machine.Options{MaxSteps: 1000000})
			var mods [2]*Model
			var cnt [2]*countingFS
			var reps [2]System
			for i := range reps {
				mods[i] = NewModel(mm, []string{"box", MirrorMetaDir})
				cnt[i] = &countingFS{System: mods[i]}
				reps[i] = NewChecksummed(cnt[i], dirs)
			}
			res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
				live := NewMirrored(reps[0], reps[1], dirs)
				for k := 0; k < files; k++ {
					if !writeSealed(live, mt, "box", fmt.Sprintf("f%d", k), []byte(fmt.Sprintf("message %d", k))) {
						mt.Failf("write f%d failed", k)
					}
				}
				live.bumpGeneration(mt, 0)
				live.bumpGeneration(mt, 1)
				if rot != "" && !mods[1].CorruptFile(mt, "box", "f3", CorruptFlip) {
					mt.Failf("corrupting %s failed", rot)
				}
				cnt[0].reset()
				cnt[1].reset()

				// Boot: a fresh mirror over the same replicas, as after a
				// process restart, running recovery's one pass.
				boot := NewMirrored(reps[0], reps[1], dirs)
				rep, written, ok := boot.Resilver(mt)
				if !ok || !rep.Clean() || rep.Checked != 2*(files+1) {
					mt.Failf("boot resilver: ok=%v %v", ok, rep)
				}
				t.Logf("boot reads (rot=%q): %d files + 1 marker per replica, opens r0=%d r1=%d, creates=%d deletes=%d appends=%d, report %v",
					rot, files, cnt[0].totalOpens(), cnt[1].totalOpens(),
					cnt[0].creates+cnt[1].creates, cnt[0].deletes+cnt[1].deletes, cnt[0].appends+cnt[1].appends, rep)

				for i := range cnt {
					for path, n := range cnt[i].opens {
						want := 1
						if path == rot {
							want = 2 // the pass's read, then the verify-after-write
						}
						if n != want {
							mt.Failf("replica %d opened %s %d times, want %d", i, path, n, want)
						}
					}
					if got := len(cnt[i].opens); got != files+1 {
						mt.Failf("replica %d opened %d distinct files, want %d", i, got, files+1)
					}
				}
				if rot == "" {
					if written != 0 || rep.Corrupt != 0 || rep.Healed != 0 {
						mt.Failf("healthy pair: wrote %d bytes, report %v", written, rep)
					}
					for i := range cnt {
						if cnt[i].creates+cnt[i].deletes+cnt[i].appends != 0 {
							mt.Failf("healthy pair: replica %d saw %d creates, %d deletes, %d appends",
								i, cnt[i].creates, cnt[i].deletes, cnt[i].appends)
						}
					}
					return
				}
				if rep.Corrupt != 1 || rep.Healed != 1 || written == 0 {
					mt.Failf("rotten copy: wrote %d bytes, report %v", written, rep)
				}
				if cnt[0].creates+cnt[0].deletes+cnt[0].appends != 0 || cnt[1].creates != 1 || cnt[1].deletes != 1 {
					mt.Failf("rotten copy: writes r0=%d/%d/%d r1=%d/%d/%d (creates/deletes/appends), want only r1's one rewrite",
						cnt[0].creates, cnt[0].deletes, cnt[0].appends, cnt[1].creates, cnt[1].deletes, cnt[1].appends)
				}
			})
			if res.Outcome != machine.Done {
				t.Fatalf("res=%+v", res)
			}
		})
	}
}
