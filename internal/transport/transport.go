// Package transport provides the point-to-point message passing channels of
// the paper's system model (§3.1): processes are fully connected by
// reliable, FIFO-ordered channels with no bound on transmission time.
//
// Two implementations are provided: MemNetwork, an in-process network built
// on goroutines and unbounded per-link queues (with optional fault
// injection for tests), and TCPNetwork, a TCP network for running groups
// across real processes using the hand-rolled binary codec of
// internal/codec with per-peer frame batching.
//
// Endpoints are shared by every group a node hosts: messages are
// multiplexed onto (GroupID, Channel) inboxes so that each group's
// protocol, consensus module and the node-wide failure detector each own
// an independent inbox. One TCP connection pair per peer therefore serves
// all the groups two nodes share. A slow application in one group never
// starves another group's data or control plane — the buffer separation
// the paper prescribes ("the protocol must always reserve separate buffer
// space for control information", §5.3), lifted to group granularity.
package transport

import (
	"errors"

	"repro/internal/ident"
)

// Channel identifies a logical multiplexing channel of one group on an
// endpoint.
type Channel uint8

const (
	// Data carries application multicast traffic (DATA messages). It is
	// the only channel subject to protocol-level flow control.
	Data Channel = iota + 1
	// Ctl carries SVS control traffic: INIT, PRED, VIEW dissemination,
	// stability gossip and flow-control credits.
	Ctl
	// Consensus carries the consensus module's rounds.
	Consensus
	// FailureDetector carries heartbeats. Heartbeats are node-scoped: they
	// always travel in ident.NodeGroup, regardless of how many groups the
	// node hosts.
	FailureDetector

	numChannels = FailureDetector
)

// Channels lists every defined channel.
func Channels() []Channel {
	return []Channel{Data, Ctl, Consensus, FailureDetector}
}

// validChannel reports whether ch is one of the defined channels. Wire
// transports drop (and count) envelopes outside this range instead of
// depositing into inboxes nothing consumes.
func validChannel(ch Channel) bool {
	return ch >= Data && ch <= numChannels
}

// groupChan keys one inbox: a (group, channel) pair.
type groupChan struct {
	g  ident.GroupID
	ch Channel
}

// Envelope is a received message together with its origin and the group
// it belongs to.
type Envelope struct {
	From  ident.PID
	Group ident.GroupID
	Msg   any
}

// DropStats counts envelopes an endpoint discarded at deposit time
// instead of delivering. Unknown means the (group, channel) inbox was
// never registered — traffic for a group this node does not host (or no
// longer hosts), or a channel outside the defined range.
type DropStats struct {
	DroppedUnknownGroup   uint64
	DroppedUnknownChannel uint64
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownPeer is returned by Send when the destination is not part of
// the network.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// Endpoint is one process's attachment to the network, shared by every
// group the process participates in.
//
// Send enqueues m for delivery to the destination's inbox for (g, ch); it
// never blocks on the receiver (channels are reliable and unbounded —
// bounded buffering and flow control live above, in the protocol, where
// the paper places them). Implementations guarantee per-sender FIFO order
// within each (group, channel) provided the sender calls Send from one
// goroutine, which the protocol engine does.
//
// InboxBatch returns the receive channel for (g, ch), registering it if
// needed; it is closed when the endpoint closes or the group is
// deregistered. One receive yields every envelope pending for (g, ch) at
// that moment (bounded per receive), in FIFO order. The yielded slice is
// owned by the transport and is valid only until the consumer's next
// receive from the same channel — a consumer keeping an envelope (or its
// payload) past that point must copy it. Each inbox has one consumer. An
// envelope arriving for a (group, channel) pair that was never registered
// is dropped and counted, not deposited: registration is how an endpoint
// knows which groups this node hosts.
//
// Register creates the inboxes of every defined channel of group g ahead
// of traffic (idempotent); Deregister removes and closes them, so stray
// traffic for a departed group is dropped and counted instead of
// accumulating. The reserved ident.NodeGroup is registered at endpoint
// creation.
type Endpoint interface {
	Self() ident.PID
	Send(to ident.PID, g ident.GroupID, ch Channel, m any) error
	InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope
	Register(g ident.GroupID)
	Deregister(g ident.GroupID)
	Close() error
}
