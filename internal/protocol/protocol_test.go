package protocol

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func TestApplierFunc(t *testing.T) {
	called := false
	af := ApplierFunc(func(cmd command.Command) []byte {
		called = true
		return []byte("ok")
	})
	if string(af.ApplyAt(command.Put("k", nil), timestamp.Zero)) != "ok" || !called {
		t.Fatal("ApplierFunc adapter broken")
	}
	var got Result
	af.ApplyDeferred(command.Put("k", nil), timestamp.Zero, func(r Result) { got = r })
	if string(got.Value) != "ok" {
		t.Fatal("ApplierFunc did not complete its deferred apply before returning")
	}
}
