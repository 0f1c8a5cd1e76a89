//go:build race

package machine

import "iter"

// raceBuild tells the tests which pull they run on.
const raceBuild = true

// pull, under the race detector, is iter.Pull's contract kept by a
// goroutine and two channels. Go 1.24's race runtime gives every
// coroutine a race context and never frees it (newcoro calls
// racegostart; a coroutine exits through coroexit, which skips
// racegoend), about 5 KB apiece: a -short -race run of internal/repl, a
// few million simulated threads, grew past 15 GB. A goroutine's context
// is freed when it exits. Only race-instrumented builds take this file,
// and everything above it — the carrier loop included — is the same
// code either way. One difference shows: a body that leaves by
// runtime.Goexit ends this goroutine, and next reports the coroutine
// finished where iter.Pull forwards the Goexit to its caller.
func pull(body iter.Seq[status]) (next func() (status, bool), stop func()) {
	type parked struct {
		st status
		ok bool // false: the body returned
	}
	var (
		resume        = make(chan bool) // false: stop
		park          = make(chan parked)
		started, done bool
	)
	run := func() {
		defer func() {
			done = true
			park <- parked{}
		}()
		body(func(st status) bool {
			park <- parked{st, true}
			return <-resume
		})
	}
	next = func() (status, bool) {
		if done {
			return 0, false
		}
		if started {
			resume <- true
		} else {
			started = true
			go run()
		}
		p := <-park
		return p.st, p.ok
	}
	stop = func() {
		switch {
		case done:
		case !started:
			done = true // a body that never ran never will
		default:
			resume <- false
			<-park
		}
	}
	return next, stop
}
