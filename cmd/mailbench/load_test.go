package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/postal"
)

// TestFlagSurface pins mailbench's flag names: two modes (the Figure 11
// sweep and the -load/-drill harness) and nothing that measures — a
// re-accreted mode shows up here as a diff.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("mailbench", flag.ContinueOnError)
	defineFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := "cores dir drill duration load mix no-fsync rate requests seed servers skew slo users zipf-s"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("mailbench flags are\n  %s\nwant\n  %s", g, want)
	}
}

// TestReplayCommandRoundTrips: the replay line a failed drill prints is
// a complete bug report — parsing it with mailbench's own flag set
// yields the run's loadConfig again, every field included.
func TestReplayCommandRoundTrips(t *testing.T) {
	for _, cfg := range []loadConfig{
		{ // every field non-default
			base: "/mnt/disk/scratch", users: 5000, rate: 1250.5, duration: 90 * time.Second, seed: 42,
			noFsync: true, skew: postal.SkewZipf, zipfS: 1.3, mix: 0.25, drills: []string{"crash", "diskfull", "crash"},
		},
		{ // a bare -load run on tmpfs: the defaults, duration resolved
			users: 100, rate: 1000, duration: autoDuration(100), seed: 1,
			skew: postal.SkewUniform, zipfS: postal.DefaultZipfS, mix: 0.5,
		},
	} {
		line := replayCommand(cfg)
		fs := flag.NewFlagSet("mailbench", flag.ContinueOnError)
		f := defineFlags(fs)
		if err := fs.Parse(strings.Fields(line)[1:]); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !f.load || fs.NArg() != 0 {
			t.Errorf("%s: load=%v, stray args %v", line, f.load, fs.Args())
		}
		if !reflect.DeepEqual(f.loadConfig, cfg) {
			t.Errorf("%s\n  parses to %+v\n  want      %+v", line, f.loadConfig, cfg)
		}
	}
}

// TestDrillSchedule pins the deterministic drill placement: n drills
// at (i+1)·D/(n+1), alternating gated steady windows and ungated drill
// windows, duplicate names disambiguated; no drills is one gated
// window.
func TestDrillSchedule(t *testing.T) {
	windows, times := drillSchedule([]string{"crash", "crash", "partition"}, 8*time.Second)
	if len(times) != 3 || times[0] != 2*time.Second || times[1] != 4*time.Second || times[2] != 6*time.Second {
		t.Errorf("drill times wrong: %v", times)
	}
	if len(windows) != 7 {
		t.Fatalf("want 7 windows (4 steady + 3 drill), got %v", windows)
	}
	var names []string
	for _, w := range windows {
		names = append(names, w.Name)
		if strings.HasPrefix(w.Name, "steady") != w.Gated {
			t.Errorf("window %+v: only steady windows are gated", w)
		}
	}
	want := "steady-0 crash steady-1 crash#2 steady-2 partition steady-3"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("window names %q, want %q", got, want)
	}
	if windows[6].End != 0 {
		t.Errorf("last window must run to the end of the run: %+v", windows[6])
	}

	w, ts := drillSchedule(nil, time.Second)
	if len(w) != 1 || w[0] != (postal.PhaseWindow{Name: "steady-0", Gated: true}) || ts != nil {
		t.Errorf("no drills must mean one gated steady-0 window to the end of the run: %v %v", w, ts)
	}
}

// TestDeploymentFor pins the drill→deployment matrix and its rejected
// combinations (mirroring mailboatd.Options' exclusivity rules).
func TestDeploymentFor(t *testing.T) {
	cases := []struct {
		drills []string
		want   string
		ok     bool
	}{
		{nil, "plain", true},
		{[]string{"crash"}, "plain", true},
		{[]string{"fault", "crash"}, "plain", true},
		{[]string{"corrupt", "crash"}, "mirror+checksum", true},
		{[]string{"partition", "crash"}, "replicated", true},
		{[]string{"partition", "corrupt"}, "", false},
		{[]string{"partition", "fault"}, "", false},
		{[]string{"corrupt", "fault"}, "", false},
		{[]string{"meteor"}, "", false},
	}
	for _, c := range cases {
		got, err := deploymentFor(c.drills)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("deploymentFor(%v) = %q, %v; want %q", c.drills, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("deploymentFor(%v) must fail", c.drills)
		}
	}
}
