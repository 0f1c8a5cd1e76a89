package mailboat

import "strconv"

// Names is one family of store names, prefix+i. Every index a checked
// scenario draws — a user, a message or spool slot, an epoch — is below
// the 64 it pre-builds, so naming a file there allocates nothing; a
// deployment's larger indices are rendered per call.
type Names struct {
	prefix string
	small  [64]string
}

// NewNames pre-builds prefix's names for the small indices.
func NewNames(prefix string) *Names {
	n := &Names{prefix: prefix}
	for i := range n.small {
		n.small[i] = prefix + strconv.Itoa(i)
	}
	return n
}

// Name returns prefix+i.
func (n *Names) Name(i uint64) string {
	if i < uint64(len(n.small)) {
		return n.small[i]
	}
	return n.prefix + strconv.FormatUint(i, 10)
}

var (
	userDirs  = NewNames("user")
	msgNames  = NewNames("msg")
	tmpNames  = NewNames("tmp")
	lockNames = NewNames("mailbox")
)
