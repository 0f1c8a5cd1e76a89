//go:build !race

package machine

import "iter"

// pull turns a thread body into a coroutine: next switches to it, its
// yield switches back, with no trip through the Go scheduler.
func pull(body iter.Seq[status]) (next func() (status, bool), stop func()) {
	return iter.Pull(body)
}
