package codec

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func sampleCommands() []command.Command {
	return []command.Command{
		{},
		command.Noop(),
		command.Fence([]byte("marker")),
		{ID: command.ID{Node: -1, Seq: 1 << 60}, Op: command.OpBatch, Key: "a", ExtraKeys: []string{"b", "", "c"}, Payload: []byte{0}},
		{ID: command.ID{Node: 31, Seq: 7}, Op: command.OpPut, Key: string(bytes.Repeat([]byte("k"), 300)), Value: bytes.Repeat([]byte{9}, 1000), Epoch: 1<<32 - 1},
	}
}

func TestFieldsRoundTrip(t *testing.T) {
	ids := []command.ID{{Node: 0, Seq: 0}, {Node: 3, Seq: 1 << 40}, {Node: -2, Seq: 1}}
	ts := timestamp.Timestamp{Seq: 1 << 50, Node: 4}
	for _, cmd := range sampleCommands() {
		b := AppendCommand(nil, cmd)
		b = AppendTimestamp(b, ts)
		b = AppendIDs(b, ids)
		b = AppendIDs(b, nil)
		b = AppendBool(b, true)
		r := NewReader(b)
		var from chunk.Slices[command.ID]
		gotCmd, gotTs, gotIDs, empty, flag := r.Command(), r.Timestamp(), r.IDs(&from), r.IDs(&from), r.Bool()
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("%v: err %v, %d bytes left", cmd, r.Err(), r.Len())
		}
		if !reflect.DeepEqual(gotCmd, cmd) || gotTs != ts || !reflect.DeepEqual(gotIDs, ids) || empty != nil || !flag {
			t.Fatalf("round trip of %#v gave %#v, %v, %v, %v, %v", cmd, gotCmd, gotTs, gotIDs, empty, flag)
		}
		// Every proper prefix is malformed, and says so instead of panicking.
		for cut := 0; cut < len(b); cut++ {
			r := NewReader(b[:cut])
			r.Command()
			r.Timestamp()
			r.IDs(&from)
			r.IDs(&from)
			r.Bool()
			if r.Err() == nil {
				t.Fatalf("%d byte prefix of %d decoded cleanly", cut, len(b))
			}
		}
	}
}

// TestDecodedFieldsOwnTheirMemory: the wire decoder reuses its frame
// buffer for the next frame, so nothing a Reader returns may alias it.
func TestDecodedFieldsOwnTheirMemory(t *testing.T) {
	cmd := command.Command{Op: command.OpPut, Key: "key", Value: []byte("value"), ExtraKeys: []string{"extra"}, Payload: []byte("payload")}
	b := AppendCommand(nil, cmd)
	r := NewReader(b)
	got := r.Command()
	for i := range b {
		b[i] = 0xff
	}
	if !reflect.DeepEqual(got, cmd) {
		t.Fatalf("overwriting the input changed the decoded command to %#v", got)
	}
}

// TestForgedCountsAreRejected: a count larger than the remaining input
// could hold is malformed before anything is allocated for it.
func TestForgedCountsAreRejected(t *testing.T) {
	huge := AppendUvarint(nil, 1<<40)
	var from chunk.Slices[command.ID]
	for name, read := range map[string]func(*Reader){
		"ids":   func(r *Reader) { r.IDs(&from) },
		"cmds":  func(r *Reader) { r.Commands() },
		"bytes": func(r *Reader) { r.Bytes() },
		"count": func(r *Reader) { r.Count(1) },
	} {
		r := NewReader(append(huge[:len(huge):len(huge)], 1, 2, 3))
		if allocs := testing.AllocsPerRun(1, func() { read(&r) }); r.Err() == nil || allocs != 0 {
			t.Errorf("%s: err %v after %v allocations, want ErrMalformed after none", name, r.Err(), allocs)
		}
	}
}

// TestFailLatches: a field that breaks its layout's rule fails the decode
// like a short input — later reads return zero values, End reports it.
func TestFailLatches(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 7))
	r.Fail()
	if v := r.Uvarint(); v != 0 || r.End() != ErrMalformed {
		t.Fatalf("after Fail: read %d, End %v, want 0 and ErrMalformed", v, r.End())
	}
}

// TestNodeWiderThan32BitsIsMalformed: a node field is the uvarint of 32
// bits, so a wider value is no encoding of any node — truncated, it would
// read as the same node as its low half.
func TestNodeWiderThan32BitsIsMalformed(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 1<<32|5))
	if r.Node(); r.End() != ErrMalformed {
		t.Fatalf("a 33-bit node read with End %v, want ErrMalformed", r.End())
	}
	r = NewReader(AppendNode(nil, -1))
	if n := r.Node(); n != -1 || r.End() != nil {
		t.Fatalf("node -1 read back as %d (%v)", n, r.End())
	}
}

// TestUint32WiderThan32BitsIsMalformed: the same rule for every 32-bit
// field, a command's Epoch among them.
func TestUint32WiderThan32BitsIsMalformed(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 1<<32|1))
	if v := r.Uint32(); v != 0 || r.End() != ErrMalformed {
		t.Fatalf("a 33-bit value read as %d with End %v, want ErrMalformed", v, r.End())
	}
	r = NewReader(AppendUvarint(nil, 1<<32-1))
	if v := r.Uint32(); v != 1<<32-1 || r.End() != nil {
		t.Fatalf("2³²-1 read back as %d (%v)", v, r.End())
	}
	b := AppendCommand(nil, command.Command{Key: "k"})
	b = AppendUvarint(b[:len(b)-1], 1<<32|1) // Epoch, the last field
	r = NewReader(b)
	if r.Command(); r.End() != ErrMalformed {
		t.Fatalf("a command with a 33-bit epoch read with End %v, want ErrMalformed", r.End())
	}
}

// TestCommandsRoundTrip: a counted command list reads back whole, an empty
// one as nil, and End accepts exactly the bytes the list took.
func TestCommandsRoundTrip(t *testing.T) {
	cmds := sampleCommands()
	b := AppendCommands(AppendCommands(nil, cmds), nil)
	r := NewReader(b)
	got, empty := r.Commands(), r.Commands()
	if err := r.End(); err != nil || !reflect.DeepEqual(got, cmds) || empty != nil {
		t.Fatalf("round trip gave %#v, %#v, %v", got, empty, err)
	}
	for _, damaged := range [][]byte{b[:len(b)-2], append(b[:len(b):len(b)], 0)} {
		r := NewReader(damaged)
		r.Commands()
		r.Commands()
		if r.End() != ErrMalformed || r.Err() != ErrMalformed {
			t.Fatalf("%d of %d bytes: End %v, want ErrMalformed", len(damaged), len(b), r.End())
		}
	}
}
