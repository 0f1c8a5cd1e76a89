//go:build race

package gfs_test

// raceBuild tells the allocation pins that the race detector's
// instrumentation is in the build.
const raceBuild = true
