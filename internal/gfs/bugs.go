package gfs

import "encoding/binary"

// This file holds the storage stack's seeded bugs, the checker's
// mb/integrity-bug rows. Each is a layer that embeds the real one and
// replaces one stage with a forgery of that stage's token; TrustReads
// and ResilverNoVerify substitute it in a composed Stack, which is how a
// mailboat.Variant row reaches it, so the production layers have
// nothing to set. This is the only file of the package allowed to forge
// a token (mailboat's TestTokensForgedOnlyInBugs checks gfs too).

// TrustReads seeds the trust-read bug in s: the envelope layer serves
// reads without verifying them. s must be one backend with Checksum.
func TrustReads(s *Stack) { s.seed(s.chk[0], trustingReads{s.chk[0]}) }

// ResilverNoVerify seeds the no-verify-resilver bug in s: the resilver
// copies each source file without judging its envelope, so a survivor
// that rotted on the shelf is copied verbatim over the good replica. s
// must be a mirror.
func ResilverNoVerify(s *Stack) { s.seed(s.mirror, unjudgedResilver{s.mirror}) }

// seed puts seeded in place of old, which must be s's top layer: the
// checker's stacks carry no Observed, and each bug replaces the layer
// the scenario's stack is topped by.
func (s *Stack) seed(old, seeded System) {
	if s.Top != old {
		panic("gfs: a bug is seeded only in place of the stack's top layer")
	}
	s.Top = seeded
}

// trustingReads is a Checksummed whose Open strips the envelope without
// verifying any checksum, best-effort, serving whatever bytes it can
// decode (mb/integrity-bug:trust-read).
type trustingReads struct{ *Checksummed }

// Inner is the real envelope layer, so capability discovery still finds
// it beneath the seeded one.
func (c trustingReads) Inner() System { return c.Checksummed }

// Open is Checksummed.Open with the verify stage skipped.
func (c trustingReads) Open(t T, dir, name string) (FD, bool) {
	raw, opened, _ := readAll(t, c.inner, dir, name)
	if !opened {
		return nil, false
	}
	// BUG: the verified token is forged, not earned from verify.
	return serve(dir, name, verified{decodeTrusting(raw)}), true
}

// decodeTrusting is the trusting decoder: best-effort frame parsing
// with every checksum ignored — exactly the bug the trust-read scenario
// exists to catch.
func decodeTrusting(raw []byte) []byte {
	var plaintext []byte
	for len(raw) >= frameOverhead {
		kind := raw[0]
		plen := int(binary.BigEndian.Uint32(raw[1:5]))
		if len(raw)-frameOverhead < plen {
			plen = len(raw) - frameOverhead
		}
		if kind == frameData {
			plaintext = append(plaintext, raw[frameOverhead:frameOverhead+plen]...)
		}
		raw = raw[frameOverhead+plen:]
	}
	return plaintext
}

// unjudgedResilver is a Mirrored whose Resilver copies source bytes
// without checking their envelope (mb/integrity-bug:no-verify-resilver).
type unjudgedResilver struct{ *Mirrored }

// Inner is the real mirror, so capability discovery still finds it.
func (m unjudgedResilver) Inner() System { return m.Mirrored }

// Resilver is Mirrored.Resilver with the source's judge stage forged.
func (m unjudgedResilver) Resilver(t T) (ScrubReport, uint64, bool) {
	return m.resilver(t, forgeJudged)
}

// forgeJudged hands back the source's bytes as judged without decoding
// them: the verdict is the one an envelope-less copy gets, so rot is
// neither detected nor healed before the copy.
func forgeJudged(_ *Mirrored, _ T, _ *ScrubReport, _, _ string, _ int, data []byte, have bool, _ *judged) judged {
	// BUG: the judged token is forged, not earned from judge.
	return judged{data: data, have: have, v: VerdictAbsent}
}
