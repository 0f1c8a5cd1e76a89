// Write-ahead logging and group commit (§9.1), with a hand-driven crash
// in the committed-but-unapplied window to show recovery helping (§5.4)
// in action: the transaction's spec step is performed by recovery on
// behalf of the crashed thread.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/examples/groupcommit"
	"repro/internal/examples/wal"
	"repro/internal/explore"
	"repro/internal/machine"
)

func main() {
	fmt.Println("== exhaustive check: WAL transaction with crashes (incl. during recovery) ==")
	s := wal.Scenario("wal", wal.VariantVerified, wal.ScenarioOptions{
		Writers:    []wal.OpWrite{{V1: 7, V2: 8}},
		MaxCrashes: 2,
		PostReads:  1,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	fmt.Println(rep)
	if !rep.OK() {
		fmt.Println(rep.Counterexample.Format())
		return
	}

	fmt.Println("\n== hand-driven helping window ==")
	demoHelpingWindow()

	fmt.Println("\n== exhaustive check: group commit (buffered writes may be lost, flushed may not) ==")
	g := groupcommit.Scenario("group-commit", groupcommit.VariantVerified, groupcommit.ScenarioOptions{
		Steps: []groupcommit.Step{
			{Write: &groupcommit.OpWrite{V1: 1, V2: 2}},
			{Flush: true},
		},
		MaxCrashes: 1,
		PostReads:  1,
	})
	rep = explore.Run(g, explore.Options{MaxExecutions: 100000})
	fmt.Println(rep)
	if !rep.OK() {
		fmt.Println(rep.Counterexample.Format())
	}
}

// demoHelpingWindow runs one transaction, kills the machine right after
// the commit write (before the data blocks are updated), and lets
// recovery complete it, printing the ghost state along the way.
func demoHelpingWindow() {
	m := machine.New(machine.Options{TraceDepth: 40})
	d := disk.New(m, "d", wal.DiskSize, false)
	g := core.NewCtx(m)
	sp := wal.Spec()
	g.InitSim(sp, sp.Init())

	var w *wal.WAL
	m.RunEra(machine.SeqChooser{}, false, func(t *machine.T) {
		w = wal.New(t, g, d)
	})

	// The writer's steps: acquire, log1, log2, commit-flag, data1,
	// data2, clear-flag, release. Crash right after the commit write:
	// run 5 steps, then crash (the last option).
	steps := 0
	ch := machine.ChooserFunc(func(n int, tag string) int {
		if tag != "sched" {
			return 0
		}
		steps++
		if steps > 5 {
			return n - 1 // crash
		}
		return 0
	})
	res := m.RunEra(ch, true, func(t *machine.T) {
		j := g.NewJTok(wal.OpWrite{V1: 7, V2: 8})
		w.WritePair(t, j, 7, 8)
		g.FinishOp(t, j, nil)
	})
	fmt.Printf("writer era: %v (crashed in the committed window)\n", res.Outcome)
	fmt.Printf("  disk: flag=%d log=(%d,%d) data=(%d,%d)\n",
		d.Peek(0), d.Peek(1), d.Peek(2), d.Peek(3), d.Peek(4))
	fmt.Printf("  helping tokens deposited: %d\n", len(g.HelpingTokens()))
	fmt.Printf("  spec source state before recovery: %+v\n", g.Source())

	m.CrashReset()
	res = m.RunEra(machine.SeqChooser{}, false, func(t *machine.T) {
		w = wal.Recover(t, w)
	})
	fmt.Printf("recovery era: %v\n", res.Outcome)
	fmt.Printf("  disk: flag=%d data=(%d,%d)\n", d.Peek(0), d.Peek(3), d.Peek(4))
	fmt.Printf("  spec source state after helping + crash step: %+v\n", g.Source())
	fmt.Printf("  helping tokens remaining: %d\n", len(g.HelpingTokens()))
	fmt.Println("machine trace (TraceDepth keeps the last 40 lines):")
	for _, line := range m.Trace() {
		fmt.Printf("  %s\n", line)
	}
}
