package wal

// encoding/gob sizes a map by the count its stream claims before it reads
// a single entry, and documents that it is not hardened against hostile
// input: a few damaged bytes in a snapshot could ask for gigabytes before
// the decoder noticed that the entries are missing. Every other length gob
// checks against its input itself. gobBounded walks the stream first —
// its type definitions, then its values — and refuses any count larger
// than the bytes left in its message. Every element takes at least one
// byte, so a stream gob produced always passes, and what passes makes gob
// allocate in proportion to the bytes it was handed.
//
// The walk follows the wire format in encoding/gob's package comment:
// unsigned integers take one byte below 128 and otherwise a negated byte
// count and that many big-endian bytes; a signed integer is an unsigned
// one with the sign in the low bit; a message is its length, a type ID and
// a body; a negative ID defines that type, and the body is a wireType
// struct; a struct is field-number deltas, each followed by the field,
// ending in 0; slices, arrays and maps are a count and the elements;
// strings, byte slices and marshaled values are a length and the bytes. A
// snapshot holds no interface values, so a stream that uses one is
// refused, as is a type nested deeper than any snapshot nests;
// writeSnapshotFile runs the same walk, so a snapshot field that breaks
// either rule fails the write instead of being installed unreadable.
//
// This file is a stopgap, a second reader of gob's wire format kept beside
// gob. Moving the snapshot onto internal/codec deletes it together with
// the last gob import (ROADMAP, "The last gob").

// The predeclared gob type IDs a snapshot's values can use.
const (
	gobBool, gobInt, gobUint, gobFloat, gobBytes, gobString, gobComplex = 1, 2, 3, 4, 5, 6, 7
)

// gobMaxDepth bounds the nesting of values. A snapshot's deepest value, a
// pending transaction's command's extra key, sits six levels down.
const gobMaxDepth = 32

// gobShape is what a value of one defined type looks like on the wire.
type gobShape struct {
	kind      uint8 // shapeList (slice or array), shapeStruct, shapeMap or shapeBytes
	elem, key int64
	fields    []int64
}

const (
	shapeList = iota + 1
	shapeStruct
	shapeMap
	shapeBytes
)

type gobWalk struct {
	b     []byte
	types map[int64]*gobShape
}

// gobBounded reports whether the stream walks as gob and claims no count
// larger than the bytes left in its message.
func gobBounded(stream []byte) bool {
	w := &gobWalk{b: stream, types: make(map[int64]*gobShape)}
	for len(w.b) > 0 {
		n, ok := w.count()
		if !ok {
			return false
		}
		msg, rest := w.b[:n], w.b[n:]
		w.b = msg
		id, ok := w.int()
		switch {
		case !ok:
			return false
		case id < 0:
			ok = w.define(-id)
		default:
			if s := w.types[id]; s == nil || s.kind != shapeStruct {
				// A top-level value that is not a struct is a singleton:
				// a field delta of 0 comes first.
				d, dok := w.uint()
				ok = dok && d == 0
			}
			ok = ok && w.value(id, 0)
		}
		if !ok || len(w.b) != 0 {
			return false
		}
		w.b = rest
	}
	return true
}

func (w *gobWalk) uint() (uint64, bool) {
	if len(w.b) == 0 {
		return 0, false
	}
	c := w.b[0]
	w.b = w.b[1:]
	if c < 0x80 {
		return uint64(c), true
	}
	n := -int(int8(c))
	if n > 8 || n > len(w.b) {
		return 0, false
	}
	var x uint64
	for _, d := range w.b[:n] {
		x = x<<8 | uint64(d)
	}
	w.b = w.b[n:]
	return x, true
}

func (w *gobWalk) int() (int64, bool) {
	u, ok := w.uint()
	if u&1 != 0 {
		return ^int64(u >> 1), ok
	}
	return int64(u >> 1), ok
}

// count reads a count or length, refusing one larger than what is left.
func (w *gobWalk) count() (int, bool) {
	n, ok := w.uint()
	if !ok || n > uint64(len(w.b)) {
		return 0, false
	}
	return int(n), true
}

func (w *gobWalk) bytes() bool {
	n, ok := w.count()
	w.b = w.b[n:]
	return ok
}

// fields walks one struct, handing each field number to fn, which reads
// the field.
func (w *gobWalk) fields(fn func(field int) bool) bool {
	for field := -1; ; {
		d, ok := w.uint()
		if !ok || d > 1<<20 {
			return false
		}
		if d == 0 {
			return true
		}
		if field += int(d); field > 1<<20 || !fn(field) {
			return false
		}
	}
}

// define reads the wireType struct that defines type id: its one set
// field is an arrayType, sliceType, structType, mapType or one of the
// three marshaler types, each led by a CommonType (name, ID).
func (w *gobWalk) define(id int64) bool {
	if w.types[id] != nil {
		return false
	}
	s := &gobShape{}
	w.types[id] = s
	// Every one of them is a struct whose field 0 is the CommonType and
	// whose other fields are type IDs, a length, or the field list.
	typeStruct := func(field func(f int) bool) bool {
		return w.fields(func(f int) bool {
			if f > 0 {
				return field(f)
			}
			return w.fields(func(f int) bool { // CommonType{Name, Id}
				if f == 0 {
					return w.bytes()
				}
				_, ok := w.int()
				return f == 1 && ok
			})
		})
	}
	read := func(to *int64) bool {
		var ok bool
		*to, ok = w.int()
		return ok
	}
	return w.fields(func(kind int) bool {
		if s.kind != 0 {
			return false
		}
		switch kind {
		case 0, 1: // arrayType{CommonType, Elem, Len}, sliceType{CommonType, Elem}
			s.kind = shapeList
			return typeStruct(func(f int) bool {
				var length int64
				return f == 1 && read(&s.elem) || f == 2 && kind == 0 && read(&length)
			})
		case 2: // structType{CommonType, Field []fieldType{Name, Id}}
			s.kind = shapeStruct
			return typeStruct(func(f int) bool {
				if f != 1 {
					return false
				}
				n, ok := w.count()
				for i := 0; ok && i < n; i++ {
					var id int64
					ok = w.fields(func(f int) bool { return f == 0 && w.bytes() || f == 1 && read(&id) })
					s.fields = append(s.fields, id)
				}
				return ok
			})
		case 3: // mapType{CommonType, Key, Elem}
			s.kind = shapeMap
			return typeStruct(func(f int) bool { return f == 1 && read(&s.key) || f == 2 && read(&s.elem) })
		case 4, 5, 6: // gobEncoderType{CommonType}: a value is its bytes
			s.kind = shapeBytes
			return typeStruct(func(int) bool { return false })
		}
		return false
	})
}

// value walks one value of type id.
func (w *gobWalk) value(id int64, depth int) bool {
	switch id {
	case gobBool, gobInt, gobUint, gobFloat:
		_, ok := w.uint()
		return ok
	case gobComplex:
		_, ok := w.uint()
		_, ok2 := w.uint()
		return ok && ok2
	case gobBytes, gobString:
		return w.bytes()
	}
	s := w.types[id]
	if s == nil || depth > gobMaxDepth {
		return false
	}
	switch s.kind {
	case shapeBytes:
		return w.bytes()
	case shapeStruct:
		return w.fields(func(f int) bool { return f < len(s.fields) && w.value(s.fields[f], depth+1) })
	case shapeList, shapeMap:
		n, ok := w.count()
		for i := 0; ok && i < n; i++ {
			ok = (s.kind != shapeMap || w.value(s.key, depth+1)) && w.value(s.elem, depth+1)
		}
		return ok
	}
	return false
}
