package wal

import (
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// encodeCommandRec is the allocating form of appendCommandRec the codec
// tests were written against; the log itself encodes into its batch
// buffer.
func encodeCommandRec(group int32, cmd command.Command, ts timestamp.Timestamp) []byte {
	return appendCommandRec(nil, group, cmd, ts)
}
