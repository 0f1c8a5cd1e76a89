//go:build !race

package machine

import "iter"

// raceBuild tells the tests which pull they run on.
const raceBuild = false

// pull turns a carrier's loop into a coroutine: next switches to it, its
// yield switches back, with no trip through the Go scheduler.
func pull(body iter.Seq[status]) (next func() (status, bool), stop func()) {
	return iter.Pull(body)
}
