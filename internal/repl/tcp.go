package repl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gfs"
	"repro/internal/netmodel"
	"repro/internal/netsrv"
)

// This file is the deployment transport: the same frames wire.go
// defines and the modeled netmodel.Net carries, over a real TCP
// connection with u32 length prefixes. The whole point is that nothing
// protocol-shaped lives here — TCPClient only has to classify socket
// errors into the netmodel.Outcome taxonomy the client leg already
// handles, and Serve only has to shuttle frames into HandleRequest.
// The checker's verdicts about the protocol therefore transfer: the
// deployment runs byte-identical messages through the same gates.

// maxFrame bounds one replication frame (a mail message plus headers
// fits comfortably; anything larger is a framing error, not mail).
const maxFrame = 1 << 24

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, b []byte) error {
	hdr := make([]byte, 4, 4+len(b))
	binary.LittleEndian.PutUint32(hdr, uint32(len(b)))
	_, err := w.Write(append(hdr, b...))
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("repl: frame of %d bytes exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Server accepts replication connections and feeds each frame through
// nd.HandleRequest, over the connection server the mail front ends
// share. Close severs live connections along with the listener — a
// killed node must go silent immediately, not keep answering frames on
// sockets accepted before the kill (the replica soak's kill switch
// depends on exactly this). One goroutine per connection; nd's
// replication lock serializes concurrent frames. t supplies randomness
// for the applies — mailboatd.Adapter implements gfs.T and is the
// intended value.
type Server struct {
	nd   *Node
	t    gfs.T
	core *netsrv.Server
}

// NewServer builds a frame server over nd.
func NewServer(nd *Node, t gfs.T) *Server {
	s := &Server{nd: nd, t: t}
	s.core = netsrv.New("", s.serveConn, new(netsrv.Metrics)) // a frame server counts nothing
	return s
}

// Serve accepts on lis until Close (the returned error is Accept's,
// net.ErrClosed on an orderly shutdown).
func (s *Server) Serve(lis net.Listener) error {
	if err := s.core.Serve(lis); err != nil {
		return err
	}
	return net.ErrClosed
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		if err := writeFrame(conn, s.nd.HandleRequest(s.t, req)); err != nil {
			return
		}
	}
}

// Close stops the listener, severs every live connection and waits for
// their handlers to return: a Shutdown whose grace has already run out.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.core.Shutdown(ctx)
}

// TCPClient implements Transport over one length-prefixed TCP
// connection, reconnecting per call as needed. Its job is honest
// outcome classification, mirroring the modeled network:
//
//	dial failed      → Lost     (nothing was sent: a definite no)
//	partition gate   → Lost     (the drill drops egress before the wire)
//	write/read error → Unknown  (the frame may have been delivered;
//	                             the reply is gone — retry same seq)
//	round trip done  → Delivered
//
// It also carries the deployment's failure detector: PeerDead reports
// a streak of connection-refused dials (the listener is gone — the
// peer process is dead, not merely unreachable), after which the
// client leg acknowledges alone. A timeout never feeds the streak: a
// partitioned peer may still be alive and applying, and acking alone
// across a partition would be split-brain.
type TCPClient struct {
	// Addr is the peer's replication listener.
	Addr string
	// Timeout bounds one call's dial plus round trip (default 2s).
	Timeout time.Duration
	// DeadAfter is the consecutive-refused-dial streak after which
	// PeerDead reports true (default 3).
	DeadAfter int
	// Metrics records net_* outcomes — the same families the modeled
	// network registers, so dashboards read identically against drills
	// and deployments. The zero value records nothing.
	Metrics netmodel.NetMetrics

	mu   sync.Mutex
	conn net.Conn

	partitioned atomic.Bool
	refused     atomic.Int64 // consecutive connection-refused dials
	failed      atomic.Int64 // consecutive non-Delivered outcomes
}

func (c *TCPClient) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 2 * time.Second
}

func (c *TCPClient) deadAfter() int64 {
	if c.DeadAfter > 0 {
		return int64(c.DeadAfter)
	}
	return 3
}

// Partition opens or heals the drill's partition gate: while open,
// every call is dropped before the wire and reported Lost — the
// deployment analogue of fault.Partition, exercised by the
// replica soak and mailbench -drill partition.
func (c *TCPClient) Partition(on bool) { c.partitioned.Store(on) }

// PeerDead reports the failure detector's verdict: DeadAfter
// consecutive dials answered connection-refused. Unlike the model's
// fail-stop latch this verdict heals — a successful dial (the peer
// restarted and listens again) clears it, and the protocol re-admits
// the peer only through the sequence-gap → catch-up-resync path, so
// the fencing argument is unchanged.
func (c *TCPClient) PeerDead() bool { return c.refused.Load() >= c.deadAfter() }

// Reachable reports whether the peer is answering: no partition gate,
// no refused streak, and fewer than three consecutive failed calls.
// /healthz maps !Reachable to a degraded 503.
func (c *TCPClient) Reachable() bool {
	return !c.partitioned.Load() && c.refused.Load() == 0 && c.failed.Load() < 3
}

// Close drops the cached connection.
func (c *TCPClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// dropConn closes the cached connection after an error (the next call
// redials). Caller holds mu.
func (c *TCPClient) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Call implements Transport. The t parameter is unused (the modeled
// transport needs it for scheduling; a socket does not).
func (c *TCPClient) Call(t gfs.T, req []byte) ([]byte, netmodel.Outcome) {
	c.Metrics.Calls.Inc()
	if c.partitioned.Load() {
		c.failed.Add(1)
		c.Metrics.Lost.Inc()
		return nil, netmodel.Lost
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		d := net.Dialer{Timeout: c.timeout()}
		conn, err := d.Dial("tcp", c.Addr)
		if err != nil {
			c.failed.Add(1)
			if errors.Is(err, syscall.ECONNREFUSED) {
				c.refused.Add(1)
			}
			c.Metrics.Lost.Inc()
			return nil, netmodel.Lost // nothing was sent: a definite no
		}
		c.conn = conn
	}
	c.refused.Store(0)
	c.conn.SetDeadline(time.Now().Add(c.timeout()))
	if err := writeFrame(c.conn, req); err != nil {
		c.dropConn()
		c.failed.Add(1)
		c.Metrics.Unknown.Inc()
		return nil, netmodel.Unknown // may be buffered on the wire
	}
	resp, err := readFrame(c.conn)
	if err != nil {
		c.dropConn()
		c.failed.Add(1)
		c.Metrics.Unknown.Inc()
		return nil, netmodel.Unknown // request may have been applied
	}
	c.failed.Store(0)
	c.Metrics.Delivered.Inc()
	return resp, netmodel.Delivered
}
