package caesar_test

// Black-box conformance: CAESAR must satisfy the same replicated state
// machine contract as every other engine in this repository (the shared
// battery checks the Generalized Consensus specification of §III).

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		return caesar.New(ep, protocol.Sync(app), caesar.Config{HeartbeatInterval: -1})
	})
}

func TestConformanceNoGC(t *testing.T) {
	if testing.Short() {
		t.Skip("variant battery")
	}
	enginetest.Run(t, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		return caesar.New(ep, protocol.Sync(app), caesar.Config{HeartbeatInterval: -1, GCInterval: -1})
	})
}

func TestConformanceWaitDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("variant battery")
	}
	// The §IV-A ablation must still be safe — it only trades fast
	// decisions for retries.
	enginetest.Run(t, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		return caesar.New(ep, protocol.Sync(app), caesar.Config{HeartbeatInterval: -1, DisableWait: true})
	})
}
