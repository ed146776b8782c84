package wire

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
)

// FuzzDecode throws arbitrary bytes at the decoder as one stream. Decoding
// must never panic, and whatever it accepts must survive a second trip:
// re-encoded, it decodes to an equal envelope. (Byte equality is not
// required — a uvarint has non-minimal spellings the decoder accepts and
// the encoder never emits.)
func FuzzDecode(f *testing.F) {
	for _, msg := range everyMessage() {
		seed := 0
		fill(reflect.ValueOf(msg), &seed)
		f.Add(frame(f, &Envelope{From: 3, Payload: msg}))
	}
	for _, msg := range everyMessage() {
		f.Add(frame(f, &Envelope{Payload: msg})) // zero values: empty lists, keys and payloads
	}
	f.Add(withBody(2, tagShardEnvelope, 1, 0, tagShardEnvelope, 2, 0, tagHeartbeat))
	// A predecessor set out of order: refused, like its neighbours one
	// mutation away with an ID twice.
	f.Add(frame(f, &Envelope{From: 1, Payload: &caesar.Stable{Pred: []command.ID{{Node: 1, Seq: 2}, {Node: 0, Seq: 7}}}}))
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := NewDecoder(bytes.NewReader(in))
		for {
			var env Envelope
			if err := dec.Decode(&env); err != nil {
				return
			}
			var again Envelope
			if err := NewDecoder(bytes.NewReader(frame(t, &env))).Decode(&again); err != nil {
				t.Fatalf("re-encoded %#v does not decode: %v", env.Payload, err)
			}
			if !reflect.DeepEqual(env, again) {
				t.Fatalf("second trip changed the envelope:\n first  %#v\n second %#v", env.Payload, again.Payload)
			}
		}
	})
}
