package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/mailboat"
	"repro/internal/pop3"
	"repro/internal/smtp"
)

// This file is the protocol client of mail-net: one persistent SMTP
// connection per client and a fresh POP3 session per pickup, as the
// Postal tools (and postal.NetBackend) do. It is the benchmark's own,
// not postal.NetBackend, so that it can count wire bytes and round
// trips at the socket and keep body formatting out of the request
// path: every pool message's dot-stuffed CRLF form is built once, in
// set-up.

// wireCounts is one protocol's traffic, summed over all clients.
type wireCounts struct {
	bytes atomic.Int64 // sent + received
	trips atomic.Int64 // request → reply exchanges (a connect+banner is one)
}

// netFront is the pair of protocol servers over a store, plus what the
// clients share.
type netFront struct {
	smtpSrv *smtp.Server
	popSrv  *pop3.Server
	smtpAt  string
	popAt   string

	wireBody [][]byte // per pool message: DATA payload incl. the final dot line
	smtpWire wireCounts
	popWire  wireCounts
}

// startFront starts smtp.Server and pop3.Server over store on loopback.
func startFront(store mailStore, users uint64, pool *msgPool) (*netFront, error) {
	f := &netFront{}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("smtp listener: %w", err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sl.Close()
		return nil, fmt.Errorf("pop3 listener: %w", err)
	}
	f.smtpSrv, f.popSrv = smtp.NewServer(store, users), pop3.NewServer(store, users)
	f.smtpAt, f.popAt = sl.Addr().String(), pl.Addr().String()
	// Serve returns nil after the deliberate Close in stop; the servers
	// own their goroutines and Close waits for the handlers.
	go f.smtpSrv.Serve(sl)
	go f.popSrv.Serve(pl)
	for _, m := range pool.msgs {
		f.wireBody = append(f.wireBody, dotStuff(m))
	}
	return f, nil
}

func (f *netFront) stop() {
	f.smtpSrv.Close()
	f.popSrv.Close()
}

// dotStuff renders a message as an SMTP DATA payload: CRLF line ends,
// leading dots doubled, terminated by the lone-dot line.
func dotStuff(msg []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.Split(strings.TrimSuffix(string(msg), "\n"), "\n") {
		if strings.HasPrefix(line, ".") {
			b.WriteByte('.')
		}
		b.WriteString(line)
		b.WriteString("\r\n")
	}
	b.WriteString(".\r\n")
	return b.Bytes()
}

// textConn is one line-oriented connection with traffic counting.
type textConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *wireCounts
}

func dialText(addr string, w *wireCounts, banner string) (*textConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &textConn{conn: conn, r: bufio.NewReaderSize(conn, 32<<10), w: w}
	w.trips.Add(1)
	if _, err := c.expect(banner); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// readLine reads one reply line, CRLF stripped.
func (c *textConn) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	c.w.bytes.Add(int64(len(line)))
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// expect reads one reply line and checks its prefix; a well-formed
// reply with another prefix is a refusal, not an I/O error.
func (c *textConn) expect(prefix string) (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, prefix) {
		return line, &replyError{reply: line}
	}
	return line, nil
}

// cmd is one round trip: send payload (which ends in CRLF), read one
// reply line.
func (c *textConn) cmd(payload []byte, prefix string) (string, error) {
	if _, err := c.conn.Write(payload); err != nil {
		return "", err
	}
	c.w.bytes.Add(int64(len(payload)))
	c.w.trips.Add(1)
	return c.expect(prefix)
}

// readDotLines reads a multi-line reply up to the lone dot, undoing
// dot-stuffing.
func (c *textConn) readDotLines() ([]string, error) {
	var lines []string
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "." {
			return lines, nil
		}
		lines = append(lines, strings.TrimPrefix(line, "."))
	}
}

// abort closes without lingering: the RST spares the loopback stack a
// TIME_WAIT entry per POP3 session, of which a run opens tens of
// thousands.
func (c *textConn) abort() {
	if tc, ok := c.conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.conn.Close()
}

// netClient is one client's SMTP connection and current POP3 session.
type netClient struct {
	f    *netFront
	smtp *textConn
	pop  *textConn // nil outside a session
	dele int       // messages marked so far in the open session
}

func (f *netFront) newClient() (*netClient, error) {
	c, err := dialText(f.smtpAt, &f.smtpWire, "220")
	if err != nil {
		return nil, fmt.Errorf("smtp dial: %w", err)
	}
	return &netClient{f: f, smtp: c}, nil
}

func (c *netClient) close() {
	if c.pop != nil {
		c.pop.abort()
	}
	c.smtp.conn.Close()
}

var (
	cmdMail = []byte("MAIL FROM:<bench@bench>\r\n")
	cmdData = []byte("DATA\r\n")
	cmdPass = []byte("PASS bench\r\n")
	cmdUIDL = []byte("UIDL\r\n")
	cmdQuit = []byte("QUIT\r\n")
)

// numCmd renders "<verb><n>CRLF".
func numCmd(verb string, n uint64) []byte {
	return append(strconv.AppendUint([]byte(verb), n, 10), '\r', '\n')
}

// Deliver is MAIL, RCPT, DATA, body: four round trips.
func (c *netClient) Deliver(user uint64, msg int) error {
	if _, err := c.smtp.cmd(cmdMail, "250"); err != nil {
		return err
	}
	rcpt := strconv.AppendUint([]byte("RCPT TO:<user"), user, 10)
	if _, err := c.smtp.cmd(append(rcpt, "@bench>\r\n"...), "250"); err != nil {
		return err
	}
	if _, err := c.smtp.cmd(cmdData, "354"); err != nil {
		return err
	}
	_, err := c.smtp.cmd(c.f.wireBody[msg], "250")
	return err
}

// Pickup opens a session — connect, USER, PASS, UIDL, RETR each — and
// leaves it open for Delete and Unlock.
func (c *netClient) Pickup(user uint64) ([]mailboat.Message, error) {
	p, err := dialText(c.f.popAt, &c.f.popWire, "+OK")
	if err != nil {
		return nil, err
	}
	fail := func(err error) ([]mailboat.Message, error) {
		p.abort()
		return nil, err
	}
	if _, err := p.cmd(numCmd("USER user", user), "+OK"); err != nil {
		return fail(err)
	}
	if _, err := p.cmd(cmdPass, "+OK"); err != nil {
		return fail(err)
	}
	if _, err := p.cmd(cmdUIDL, "+OK"); err != nil {
		return fail(err)
	}
	ids, err := p.readDotLines()
	if err != nil {
		return fail(err)
	}
	msgs := make([]mailboat.Message, 0, len(ids))
	for i, entry := range ids {
		_, id, _ := strings.Cut(entry, " ")
		if _, err := p.cmd(numCmd("RETR ", uint64(i+1)), "+OK"); err != nil {
			return fail(err)
		}
		lines, err := p.readDotLines()
		if err != nil {
			return fail(err)
		}
		msgs = append(msgs, mailboat.Message{ID: id, Contents: strings.Join(lines, "\n")})
	}
	c.pop, c.dele = p, 0
	return msgs, nil
}

// Delete marks the next message of the open session (the workload
// deletes every picked-up message, in order); QUIT applies the marks.
func (c *netClient) Delete(user uint64, id string) error {
	if c.pop == nil {
		return fmt.Errorf("bench: Delete outside a session")
	}
	c.dele++
	_, err := c.pop.cmd(numCmd("DELE ", uint64(c.dele)), "+OK")
	return err
}

// Unlock is QUIT: the server applies the deletes, releases the mailbox
// lock and answers -ERR if any delete was refused.
func (c *netClient) Unlock(user uint64) error {
	if c.pop == nil {
		return nil
	}
	_, err := c.pop.cmd(cmdQuit, "+OK")
	c.pop.abort()
	c.pop = nil
	return err
}
