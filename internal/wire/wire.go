// Package wire defines the on-the-wire encoding for multi-process
// deployments: length-delimited gob envelopes carrying CAESAR's protocol
// messages, the shard envelope and the cross-shard payloads — the only
// engine any binary puts on TCP (the baseline engines run in-process
// only). In-process transports pass payloads by reference and never touch
// this package.
package wire

import (
	"encoding/gob"
	"io"
	"sync"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// Envelope frames one protocol message.
type Envelope struct {
	From    timestamp.NodeID
	Payload any
}

// register lists every concrete message type that may cross the wire.
func register() {
	gob.Register(&caesar.FastPropose{})
	gob.Register(&caesar.FastProposeReply{})
	gob.Register(&caesar.SlowPropose{})
	gob.Register(&caesar.SlowProposeReply{})
	gob.Register(&caesar.Retry{})
	gob.Register(&caesar.RetryReply{})
	gob.Register(&caesar.Stable{})
	gob.Register(&caesar.Recover{})
	gob.Register(&caesar.RecoverReply{})
	gob.Register(&caesar.StableAckBatch{})
	gob.Register(&caesar.PurgeBatch{})
	gob.Register(&caesar.Heartbeat{})
	// Sharding: the envelope tagging each message with its consensus
	// group (internal/shard); payloads are the CAESAR messages above.
	gob.Register(&shard.Envelope{})
	// Cross-shard commit layer: participant pieces and abort markers
	// travel as interface-encoded command payloads inside the engine
	// messages, so their concrete types must be in the gob registry on
	// every process of a sharded deployment (internal/xshard).
	xshard.RegisterGob()
}

// registerOnce guards one-time gob registration (gob panics on
// duplicates).
var registerOnce sync.Once

func ensureRegistered() {
	registerOnce.Do(register)
}

// Encoder writes envelopes to a stream.
type Encoder struct {
	enc *gob.Encoder
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	ensureRegistered()
	return &Encoder{enc: gob.NewEncoder(w)}
}

// Encode writes one envelope.
func (e *Encoder) Encode(env *Envelope) error {
	return e.enc.Encode(env)
}

// Decoder reads envelopes from a stream.
type Decoder struct {
	dec *gob.Decoder
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	ensureRegistered()
	return &Decoder{dec: gob.NewDecoder(r)}
}

// Decode reads one envelope.
func (d *Decoder) Decode(env *Envelope) error {
	return d.dec.Decode(env)
}
