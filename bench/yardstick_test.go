package main

import (
	"math"
	"testing"
	"time"
)

func TestYardstickScaleArithmetic(t *testing.T) {
	y := &yard{blend: yardBlend{taskRounds: 3, cpuRounds: 10, sysOps: 100, echoTrips: 1000}}
	nominal := 3*nominalTaskRound + 10*nominalCPURound + 100*nominalSysOp + 1000*nominalEchoTrip
	if y.blend.nominal() != nominal {
		t.Fatalf("nominal %v, want %v", y.blend.nominal(), nominal)
	}
	// Samples at the reference reading: times stand as measured.
	if s := y.scaleOf(nominal, nominal); s != 1 {
		t.Errorf("scale at the reference speed = %v, want 1", s)
	}
	// The host ran the yardstick a quarter faster before and after: the
	// work in between was as much faster, so its time is stretched.
	if s := y.scaleOf(nominal*4/5, nominal*4/5); math.Abs(s-1.25) > 1e-9 {
		t.Errorf("scale on a host a quarter faster = %v, want 1.25", s)
	}
	// The two samples around a piece of work count equally.
	if s := y.scaleOf(nominal/2, nominal*3/2); s != 1 {
		t.Errorf("scale between a fast and a slow sample = %v, want 1", s)
	}
}

func TestYardstickKernelsRunAndBracket(t *testing.T) {
	y, err := newYard(yardBlend{taskRounds: 1, cpuRounds: 1, sysOps: 2, echoTrips: 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	raw, norm := y.timed(func() { time.Sleep(3 * time.Millisecond) })
	if len(y.samples) != 2 {
		t.Fatalf("a bracket took %d samples, want one before and one after", len(y.samples))
	}
	want := raw * y.scaleOf(y.samples[0], y.samples[1])
	if raw < 0.003 || math.Abs(norm-want) > 1e-12 {
		t.Errorf("timed: raw %v s, normalised %v s, want %v s", raw, norm, want)
	}
	// A sample that has only just ended opens the next bracket.
	y.bracket(func() {})
	if len(y.samples) != 3 {
		t.Errorf("back-to-back brackets took %d samples, want 3", len(y.samples))
	}
	if hs := y.hostSpeed(); hs <= 0 || math.IsInf(hs, 0) {
		t.Errorf("host speed %v", hs)
	}
	// What the samples cost is accounted for apart.
	if y.own.Mallocs == 0 {
		t.Error("the yardstick's own allocations were not recorded")
	}
}

func TestPacerExcludesYardstickTime(t *testing.T) {
	y, err := newYard(yardBlend{cpuRounds: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	pc := &pacer{y: y, every: 2 * time.Millisecond}
	t0 := time.Now()
	pc.start()
	for i := 0; i < 5; i++ {
		time.Sleep(time.Millisecond)
		pc.tick()
	}
	raw, norm := pc.stop()
	wall := time.Since(t0)
	var yardTime time.Duration
	for _, s := range y.samples {
		yardTime += s
	}
	if len(y.samples) < 3 {
		t.Errorf("5 ms of work at a 2 ms pace took %d samples", len(y.samples))
	}
	if raw < 5*time.Millisecond || raw > wall-yardTime+time.Millisecond || norm <= 0 {
		t.Errorf("raw %v, normalised %v, wall %v of which %v was the yardstick", raw, norm, wall, yardTime)
	}
}
