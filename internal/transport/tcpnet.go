package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obs"
)

// Codec selects the wire encoding of a TCPNetwork. The legacy encoding/gob
// fallback of the first binary-codec release has been removed; CodecBinary
// is the only encoding, and unknown codec identifiers are rejected at
// construction.
type Codec uint8

const (
	// CodecBinary is the hand-rolled binary encoding of internal/codec
	// with per-peer frame batching: the send path drains the pending
	// queue and coalesces every waiting envelope into one length-prefixed
	// batch frame per write syscall.
	CodecBinary Codec = iota
)

// TCPOptions tunes a TCPNetwork beyond the defaults.
type TCPOptions struct {
	// Codec selects the wire encoding. CodecBinary is the only supported
	// value; anything else fails construction with a clear error.
	Codec Codec
	// MaxFrame bounds one batch frame in bytes: the writer chunks its
	// coalesced batches to it, and a peer announcing a larger incoming
	// frame is treated as faulty and its connection dropped. It must
	// agree across the whole group — a node configured to send larger
	// frames than its peers accept gets dropped as faulty.
	// 0 means the default of 16 MiB.
	MaxFrame int
	// Obs, when non-nil, mirrors the wire counters onto its metrics
	// registry (tcp_frames_sent_total, tcp_envelopes_sent_total,
	// tcp_bytes_sent_total, tcp_frames_recv_total,
	// tcp_envelopes_recv_total, tcp_batch_envelopes) and the inbox drop
	// counters as transport_dropped_total{reason=...}. The atomic
	// counters behind Stats() keep working either way.
	Obs *obs.Obs
}

const defaultMaxFrame = 16 << 20

// TCPStats counts wire activity since the network started. The ratio
// EnvelopesSent/FramesSent is the achieved write-coalescing factor.
type TCPStats struct {
	FramesSent    uint64 // batch frames written (≈ syscalls on the send path)
	EnvelopesSent uint64 // envelopes coalesced into those frames
	BytesSent     uint64
	FramesRecv    uint64
	EnvelopesRecv uint64
	// Drops counts received envelopes discarded because their
	// (group, channel) inbox was not registered here.
	Drops DropStats
}

// TCPNetwork implements Endpoint over real TCP connections, so groups can
// span OS processes and machines. One TCP connection is maintained per
// outgoing peer and shared by every group the two nodes have in common;
// TCP's in-order reliable delivery provides the FIFO reliable channel of
// the system model for the lifetime of the session (crash-stop: a broken
// connection is treated as the peer's crash, there is no
// reconnect-and-replay, and Close drops whatever is still queued).
//
// Every wire type must be registered with internal/codec.
//
// Wire format, per connection: a stream of batch frames
//
//	uvarint frameLen | frame body
//
// where the body is the sender PID (uvarint length + bytes) followed by
// one or more envelopes, each
//
//	uvarint GroupID | channel byte | TypeID byte | message encoding
//
// decoded back-to-back until the frame is exhausted. A decode error is a
// protocol violation and closes the connection; a well-formed envelope
// for an unregistered group or an undefined channel is dropped and
// counted (Stats().Drops) without penalising the rest of the stream.
type TCPNetwork struct {
	self    ident.PID
	opts    TCPOptions
	ln      net.Listener
	fromEnc []byte // self PID pre-encoded for frame bodies
	maxBody int    // MaxFrame minus the fromEnc prefix: envelope budget per frame

	framesSent atomic.Uint64
	envsSent   atomic.Uint64
	bytesSent  atomic.Uint64
	framesRecv atomic.Uint64
	envsRecv   atomic.Uint64
	m          tcpMetrics

	boxes *inboxSet

	mu        sync.Mutex
	closed    bool
	closeDone chan struct{}
	peers     map[ident.PID]string
	conns     map[ident.PID]*peerConn
	accepted  map[net.Conn]struct{}
	wg        sync.WaitGroup
}

var _ Endpoint = (*TCPNetwork)(nil)

// tcpMetrics holds the optional obs mirrors of the wire counters. The
// nil instruments of a zero value are no-ops, so the hot paths record
// unconditionally. Resolved once at construction (TCPOptions.Obs) —
// never mutated afterwards, because the read/write loops access the
// fields without synchronisation.
type tcpMetrics struct {
	framesSent *obs.Counter
	envsSent   *obs.Counter
	bytesSent  *obs.Counter
	framesRecv *obs.Counter
	envsRecv   *obs.Counter
	// batch samples envelopes-per-frame on the send path: the achieved
	// write-coalescing factor as a distribution rather than a ratio.
	batch *obs.Histogram
	// rxBatch mirrors batch on the receive path: envelopes decoded per
	// incoming frame, i.e. the batch size handed onwards to the inbox
	// demux in one pass.
	rxBatch *obs.Histogram
}

func newTCPMetrics(ob *obs.Obs) tcpMetrics {
	return tcpMetrics{
		framesSent: ob.Counter("tcp_frames_sent_total"),
		envsSent:   ob.Counter("tcp_envelopes_sent_total"),
		bytesSent:  ob.Counter("tcp_bytes_sent_total"),
		framesRecv: ob.Counter("tcp_frames_recv_total"),
		envsRecv:   ob.Counter("tcp_envelopes_recv_total"),
		batch:      ob.Histogram("tcp_batch_envelopes", obs.CountBuckets),
		rxBatch:    ob.Histogram("transport_rx_batch_envelopes", obs.CountBuckets),
	}
}

// peerConn is one outgoing connection. Send appends the encoded envelope
// to pend and a per-connection writer goroutine drains pend into batch
// frames.
type peerConn struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	pend   []byte // encoded envelopes awaiting the writer
	ends   []int  // end offset of each envelope in pend (frame chunking)
	closed bool
}

func newPeerConn(conn net.Conn) *peerConn {
	pc := &peerConn{conn: conn}
	pc.cond = sync.NewCond(&pc.mu)
	return pc
}

// close marks the connection dead and wakes its writer. Idempotent.
func (pc *peerConn) close() {
	pc.conn.Close()
	pc.mu.Lock()
	if !pc.closed {
		pc.closed = true
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
}

// NewTCPNetwork starts listening on listenAddr and returns the endpoint
// for self, using the default options. peers maps every other group
// member to its listen address; connections are dialed lazily on first
// send.
func NewTCPNetwork(self ident.PID, listenAddr string, peers map[ident.PID]string) (*TCPNetwork, error) {
	return NewTCPNetworkOpts(self, listenAddr, peers, TCPOptions{})
}

// NewTCPNetworkOpts is NewTCPNetwork with explicit options.
func NewTCPNetworkOpts(self ident.PID, listenAddr string, peers map[ident.PID]string, opts TCPOptions) (*TCPNetwork, error) {
	if opts.Codec != CodecBinary {
		return nil, fmt.Errorf("transport: unknown codec %d (the encoding/gob fallback was removed; only CodecBinary is supported)", opts.Codec)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = defaultMaxFrame
	}
	n := &TCPNetwork{
		self:      self,
		opts:      opts,
		ln:        ln,
		fromEnc:   codec.AppendString(nil, string(self)),
		closeDone: make(chan struct{}),
		peers:     make(map[ident.PID]string, len(peers)),
		conns:     make(map[ident.PID]*peerConn),
		accepted:  make(map[net.Conn]struct{}),
		boxes:     newInboxSet(),
	}
	n.m = newTCPMetrics(opts.Obs)
	n.boxes.instrument(opts.Obs)
	n.maxBody = opts.MaxFrame - len(n.fromEnc)
	if n.maxBody <= 0 {
		ln.Close()
		return nil, fmt.Errorf("transport: MaxFrame %d leaves no room for envelopes", opts.MaxFrame)
	}
	for p, addr := range peers {
		n.peers[p] = addr
	}
	n.boxes.register(ident.NodeGroup)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the actual listen address (useful with ":0").
func (n *TCPNetwork) Addr() string { return n.ln.Addr().String() }

// AddPeer registers (or updates) the address of a peer. It allows groups
// to be bootstrapped with ":0" listeners whose ports are only known after
// every member has started listening.
func (n *TCPNetwork) AddPeer(p ident.PID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[p] = addr
}

// Self implements Endpoint.
func (n *TCPNetwork) Self() ident.PID { return n.self }

// Conns reports the number of live outgoing peer connections — at most
// one per peer no matter how many groups are shared with it.
func (n *TCPNetwork) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Instrument mirrors the endpoint's drop counters onto ob as
// transport_dropped_total{reason=...}. Safe to call while traffic is
// flowing; core.NewNode calls it with the node's obs bundle. The wire
// counters (frames, envelopes, bytes) can only be instrumented at
// construction via TCPOptions.Obs — the read/write loops access them
// unsynchronised.
func (n *TCPNetwork) Instrument(ob *obs.Obs) { n.boxes.instrument(ob) }

// Stats returns a snapshot of the wire counters.
func (n *TCPNetwork) Stats() TCPStats {
	return TCPStats{
		FramesSent:    n.framesSent.Load(),
		EnvelopesSent: n.envsSent.Load(),
		BytesSent:     n.bytesSent.Load(),
		FramesRecv:    n.framesRecv.Load(),
		EnvelopesRecv: n.envsRecv.Load(),
		Drops:         n.boxes.drops(),
	}
}

// Register implements Endpoint: create the inboxes of every channel of g.
func (n *TCPNetwork) Register(g ident.GroupID) { n.boxes.register(g) }

// Deregister implements Endpoint: remove and close the inboxes of g.
// Subsequent traffic for g is dropped and counted.
func (n *TCPNetwork) Deregister(g ident.GroupID) { n.boxes.deregister(g) }

// InboxBatch implements Endpoint.
func (n *TCPNetwork) InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope {
	return n.boxes.inbox(g, ch)
}

// Send implements Endpoint. A successful Send means the envelope is
// queued for the peer's writer; the actual write error, if any, surfaces
// as the peer's crash (connection drop), matching the crash-stop model.
func (n *TCPNetwork) Send(to ident.PID, g ident.GroupID, ch Channel, m any) error {
	if to == n.self {
		n.deposit(g, ch, Envelope{From: n.self, Group: g, Msg: m})
		return nil
	}
	pc, err := n.peer(to)
	if err != nil {
		return err
	}
	return n.enqueue(to, pc, g, ch, m)
}

// enqueue appends the encoded envelope to the peer's pending buffer and
// wakes its writer. Encoding happens here, synchronously, so unregistered
// types and oversized messages are reported to the caller; the write
// syscall happens in the writer, coalesced with whatever else is pending.
func (n *TCPNetwork) enqueue(to ident.PID, pc *peerConn, g ident.GroupID, ch Channel, m any) error {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return fmt.Errorf("transport: send to %s: %w", to, net.ErrClosed)
	}
	start := len(pc.pend)
	buf := codec.AppendUvarint(pc.pend, uint64(g))
	buf = codec.AppendByte(buf, byte(ch))
	buf, err := codec.Marshal(buf, m)
	if err != nil {
		pc.pend = buf[:start]
		pc.mu.Unlock()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if len(buf)-start > n.maxBody {
		pc.pend = buf[:start]
		pc.mu.Unlock()
		return fmt.Errorf("transport: send to %s: message %T (%d bytes) exceeds MaxFrame %d",
			to, m, len(buf)-start, n.opts.MaxFrame)
	}
	pc.pend = buf
	pc.ends = append(pc.ends, len(buf))
	pc.cond.Signal()
	pc.mu.Unlock()
	return nil
}

// writeLoop drains pc.pend, coalescing everything pending into batch
// frames. The frame header, sender PID and body chunk go out in a single
// writev (net.Buffers), so a burst of envelopes costs one syscall — but a
// drained backlog larger than MaxFrame is split at envelope boundaries so
// the receiver never sees an over-limit frame (enqueue guarantees every
// single envelope fits).
func (n *TCPNetwork) writeLoop(to ident.PID, pc *peerConn) {
	defer n.wg.Done()
	var spare, hdr []byte
	var spareEnds []int
	for {
		pc.mu.Lock()
		for len(pc.pend) == 0 && !pc.closed {
			pc.cond.Wait()
		}
		if len(pc.pend) == 0 && pc.closed {
			pc.mu.Unlock()
			return
		}
		body := pc.pend
		ends := pc.ends
		pc.pend = spare[:0]
		pc.ends = spareEnds[:0]
		pc.mu.Unlock()

		start, idx := 0, 0
		for start < len(body) {
			// Take as many whole envelopes as fit in one frame.
			end, count := start, 0
			for idx < len(ends) && ends[idx]-start <= n.maxBody {
				end = ends[idx]
				idx++
				count++
			}
			if end == start { // cannot happen: enqueue bounds each envelope
				end = ends[idx]
				idx++
				count++
			}
			chunk := body[start:end]
			start = end

			hdr = binary.AppendUvarint(hdr[:0], uint64(len(n.fromEnc)+len(chunk)))
			bufs := net.Buffers{hdr, n.fromEnc, chunk}
			total := len(hdr) + len(n.fromEnc) + len(chunk)
			if _, err := bufs.WriteTo(pc.conn); err != nil {
				n.dropPeer(to, pc)
				return
			}
			n.framesSent.Add(1)
			n.envsSent.Add(uint64(count))
			n.bytesSent.Add(uint64(total))
			n.m.framesSent.Inc()
			n.m.envsSent.Add(uint64(count))
			n.m.bytesSent.Add(uint64(total))
			n.m.batch.Observe(float64(count))
		}

		// Reuse the drained buffers next round, but let one-off bursts go.
		if cap(body) <= 1<<20 {
			spare = body[:0]
		} else {
			spare = nil
		}
		if cap(ends) <= 1<<15 {
			spareEnds = ends[:0]
		} else {
			spareEnds = nil
		}
	}
}

// peer returns the (possibly newly dialed) connection to p.
func (n *TCPNetwork) peer(p ident.PID) (*peerConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if pc, ok := n.conns[p]; ok {
		n.mu.Unlock()
		return pc, nil
	}
	addr, ok := n.peers[p]
	n.mu.Unlock()
	if !ok {
		return nil, ErrUnknownPeer
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", p, addr, err)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if pc, ok := n.conns[p]; ok { // lost the race, reuse the winner
		conn.Close()
		return pc, nil
	}
	pc := newPeerConn(conn)
	n.conns[p] = pc
	n.wg.Add(1)
	go n.writeLoop(p, pc)
	return pc, nil
}

func (n *TCPNetwork) dropPeer(p ident.PID, pc *peerConn) {
	pc.close()
	n.mu.Lock()
	if n.conns[p] == pc {
		delete(n.conns, p)
	}
	n.mu.Unlock()
}

func (n *TCPNetwork) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *TCPNetwork) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	var r codec.Reader
	// run accumulates consecutive envelopes of one (group, channel) so a
	// whole frame reaches the inbox demux in a few batched deposits — the
	// receive-side mirror of the writer's coalescing. The buffer is reused
	// across frames; deposit copies, so nothing here escapes.
	var run []Envelope
	var runG ident.GroupID
	var runCh Channel
	flushRun := func() {
		if len(run) > 0 {
			n.boxes.deposit(runG, runCh, run...)
			run = run[:0]
		}
	}
	for {
		flen, err := binary.ReadUvarint(br)
		if err != nil {
			return // connection closed or peer crashed
		}
		if flen == 0 || flen > uint64(n.opts.MaxFrame) {
			return // protocol violation: treat the peer as faulty
		}
		if uint64(cap(frame)) < flen {
			frame = make([]byte, flen)
		}
		frame = frame[:flen]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		n.framesRecv.Add(1)
		n.m.framesRecv.Inc()
		r.Reset(frame)
		from := ident.PID(r.String())
		frameEnvs := 0
		for r.Len() > 0 && r.Err() == nil {
			gid := r.Uvarint()
			ch := Channel(r.Byte())
			// Decode the message even when the envelope will be dropped:
			// staying aligned with the stream is what lets one bad
			// envelope be discarded without dropping the whole peer.
			msg, err := codec.Unmarshal(&r)
			if err != nil {
				flushRun()
				return // mis-encoded or misaligned frame: drop the peer
			}
			n.envsRecv.Add(1)
			n.m.envsRecv.Inc()
			frameEnvs++
			if gid > math.MaxUint32 {
				// A group id beyond GroupID's range can never be hosted;
				// count it as unknown rather than letting the uint32
				// conversion alias it into a real group's inbox.
				n.boxes.dropUnknownGroup()
				continue
			}
			g := ident.GroupID(gid)
			if len(run) > 0 && (g != runG || ch != runCh) {
				flushRun()
			}
			runG, runCh = g, ch
			run = append(run, Envelope{From: from, Group: g, Msg: msg})
		}
		// Flush at every frame boundary: the frame buffer is reused for
		// the next frame, and decoded messages must not outlive deposit
		// batching by more than one frame anyway (latency).
		flushRun()
		if frameEnvs > 0 {
			n.m.rxBatch.Observe(float64(frameEnvs))
		}
		if r.Err() != nil {
			return
		}
		// Reuse the frame buffer, but don't pin a one-off large frame for
		// the connection's lifetime.
		if cap(frame) > 1<<20 {
			frame = nil
		}
		// Don't pin a one-off burst's worth of envelope headers either.
		if cap(run) > 1<<12 {
			run = nil
		}
	}
}

// deposit places env in the inbox for (g, ch), or drops and counts it
// when that inbox was never registered.
func (n *TCPNetwork) deposit(g ident.GroupID, ch Channel, env Envelope) {
	n.boxes.deposit(g, ch, env)
}

// Close implements Endpoint: crash-stop shutdown. Envelopes still queued
// for peers are dropped, no envelope is delivered locally after Close
// returns, and concurrent or repeated Close calls all block until the
// shutdown completes.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		done := n.closeDone
		n.mu.Unlock()
		<-done // wait for the first closer to finish
		return nil
	}
	n.closed = true
	conns := make([]*peerConn, 0, len(n.conns))
	for _, pc := range n.conns {
		conns = append(conns, pc)
	}
	n.conns = make(map[ident.PID]*peerConn)
	accepted := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		accepted = append(accepted, c)
	}
	n.mu.Unlock()

	n.ln.Close()
	for _, pc := range conns {
		pc.close()
	}
	for _, c := range accepted {
		c.Close()
	}
	n.wg.Wait()
	n.boxes.close()
	close(n.closeDone)
	return nil
}
