//go:build !linux

package main

import "time"

// fsTypeOf is only implemented on Linux, like gfs.OS.StatFS.
func fsTypeOf(string) string { return "unknown" }

// rusage is only implemented on Linux; the proc.* metrics read 0
// elsewhere.
func rusage() (user, sys time.Duration, peakRSSMB float64) { return 0, 0, 0 }
