// Package caesar implements the CAESAR multi-leader Generalized Consensus
// protocol of "Speeding up Consensus by Chasing Fast Decisions" (Arun,
// Peluso, Palmieri, Losa, Ravindran — DSN 2017).
//
// Every replica can lead commands. A command is proposed with a logical
// timestamp; if a fast quorum (⌈3N/4⌉) confirms the timestamp — regardless
// of whether the quorum members report identical predecessor sets — the
// command is decided in two communication delays (a fast decision). A
// rejected timestamp forces a retry phase through a classic quorum
// (⌊N/2⌋+1) for a four-delay slow decision. An acceptor-side wait condition
// (§IV-A) holds back replies for commands that arrive out of timestamp
// order instead of rejecting them, which is the mechanism that keeps the
// fast-decision rate high under conflicting workloads.
package caesar

import (
	"fmt"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Status is the state of a command in a replica's history H (§V-A).
type Status uint8

// The five statuses of §V-A plus the zero "none".
const (
	StatusNone Status = iota
	StatusFastPending
	StatusSlowPending
	StatusAccepted
	StatusRejected
	StatusStable
)

var statusNames = [...]string{"none", "fast-pending", "slow-pending", "accepted", "rejected", "stable"}

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Wire messages. A predecessor set or whitelist is a strictly ascending
// []command.ID (see internal/command) — in a record, in a message and on
// the wire, with no conversion in between; the empty set is a nil slice.
//
// A message is immutable once sent, and so is every slice reachable from
// it: the in-process transports hand the same pointer to every receiver,
// the sender included. A receiver may keep a message's Pred (a record's
// pred usually is one) but never writes into it — breakLoop, the one place
// that shrinks a set, copies first, and every union goes through
// command.UnionIDs, which writes into neither argument. A sender gives up
// a set the moment it sends it.
//
// A handler copies out what it keeps — a record takes the command and the
// set, never the message — and no handler keeps a *FastPropose,
// *FastProposeReply or *Stable past the step that handles it; RecoverReply,
// which recovery keeps, is allocated singly. Those three carry every fast
// decision, so they are slots of chunks (internal/chunk) on both sides of
// the wire: a replica takes what it sends from its own chunks, and
// internal/wire decodes into the decoder's. A slot is never reused, so a
// message a transport or trace holds on to stays intact; holding one only
// keeps its chunk's memory alive.
//
// The same holds for a command's bytes from the moment it is submitted
// (protocol.Engine.Submit), before any message carries it: the record of
// every replica's history, the write-ahead log, the peers of an in-process
// cluster and the key-value store (internal/kvstore, which keeps a put's
// value as it is) share one allocation, and none of them writes into it.
// Whoever hands a command to Submit gives up its Value and ExtraKeys; the
// public API in the root package copies a caller's buffer first.
//
// internal/wire gives each message a tag and encodes its fields in
// declaration order — a message added here needs a case there — and
// refuses a Pred or Whitelist from a peer that is not strictly ascending.
// Ballot identifies the command's current leader (§V-B): acceptors ignore
// messages whose ballot is below their promise.

// FastPropose opens the fast proposal phase for Cmd at timestamp Time
// (message PROPOSE/FASTPROPOSE of the paper).
type FastPropose struct {
	Ballot uint32
	Cmd    command.Command
	Time   timestamp.Timestamp
	// Whitelist is only set by recovery (HasWhitelist true): the
	// commands that must be considered predecessors of Cmd according to
	// the recovering leader (§V-E).
	Whitelist    []command.ID
	HasWhitelist bool
}

// FastProposeReply answers a FastPropose (message FASTPROPOSER). If NACK is
// false, Time echoes the proposed timestamp; otherwise Time is the
// acceptor's greater suggestion. Pred is the acceptor's predecessor set for
// the command in both cases.
type FastProposeReply struct {
	Ballot uint32
	CmdID  command.ID
	Time   timestamp.Timestamp
	Pred   []command.ID
	NACK   bool
}

// SlowPropose opens the slow proposal phase (§V-D): it is issued when the
// leader timed out waiting for a fast quorum but gathered a classic quorum
// with no rejection. Pred carries the union learned during the fast phase.
type SlowPropose struct {
	Ballot uint32
	Cmd    command.Command
	Time   timestamp.Timestamp
	Pred   []command.ID
}

// SlowProposeReply answers a SlowPropose; semantics mirror FastProposeReply.
type SlowProposeReply struct {
	Ballot uint32
	CmdID  command.ID
	Time   timestamp.Timestamp
	Pred   []command.ID
	NACK   bool
}

// Retry asks a classic quorum to accept the new timestamp chosen after a
// rejection (§IV-B). A Retry can never be rejected (§V-C).
type Retry struct {
	Ballot uint32
	Cmd    command.Command
	Time   timestamp.Timestamp
	Pred   []command.ID
}

// RetryReply confirms a Retry; Pred is the union of the leader-supplied set
// and the predecessors the acceptor discovered for the new timestamp.
type RetryReply struct {
	Ballot uint32
	CmdID  command.ID
	Time   timestamp.Timestamp
	Pred   []command.ID
}

// Stable finalises a command: it must be decided at Time after every
// command in Pred (message STABLE). The leader's broadcast sends a replica
// that voted in the deciding phase the command by name — Cmd is its ID
// alone, Op 0 — since that replica already holds it; every other Stable
// (to a non-voter, an echo, a retransmission) carries the command whole.
type Stable struct {
	Ballot uint32
	Cmd    command.Command
	Time   timestamp.Timestamp
	Pred   []command.ID
}

// Recover starts the Paxos-like prepare of the recovery procedure (Fig 5)
// for a command whose leader is suspected.
type Recover struct {
	Ballot uint32
	CmdID  command.ID
}

// RecoverReply returns the replier's tuple for the command (or Nop when it
// has none). TupleBallot is the ballot the tuple was last written at;
// Forced reports whether the tuple's predecessor set was forced by a
// whitelist.
type RecoverReply struct {
	Ballot      uint32
	CmdID       command.ID
	Nop         bool
	Cmd         command.Command
	Status      Status
	Time        timestamp.Timestamp
	Pred        []command.ID
	TupleBallot uint32
	Forced      bool
}

// StableAckBatch tells a command leader that the sender has delivered the
// listed commands; once every node has, the leader broadcasts a PurgeBatch
// (§V-B: "when a command is stable on all nodes, the information about c
// can be safely garbage collected").
type StableAckBatch struct {
	IDs []command.ID
}

// PurgeBatch garbage-collects fully delivered commands.
type PurgeBatch struct {
	IDs []command.ID
}

// Heartbeat feeds the failure detector and carries the sender's purge
// horizon report (gc.go): Low, the lowest of its clock's next timestamp and
// every record it indexes, and Seen, the lowest Low it knows of any
// replica, its own included.
type Heartbeat struct {
	Low, Seen timestamp.Timestamp
}
