// Package batch implements network batching (§VI evaluates every
// competitor "with and without network batching"): a proposer-side wrapper
// that coalesces client submissions into one consensus command per window,
// and an applier-side wrapper that unpacks batches for execution.
//
// A batch command's key set is the union of its members' keys, so the
// conflict relation — and therefore ordering correctness — is preserved:
// two batches conflict exactly when some of their members do. Its payload
// is the members as one counted command list in internal/codec's layout —
// the bytes a member takes in a WAL record or a wire frame, with no type
// description in front — and, like those, it is not versioned: replicas
// and the data dirs they replay must come from one build.
package batch

import (
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Config tunes the batcher.
type Config struct {
	// Window is how long submissions are buffered. Default 2ms.
	Window time.Duration
	// MaxSize flushes a batch early once it holds this many commands.
	// Default 64.
	MaxSize int
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.MaxSize == 0 {
		c.MaxSize = 64
	}
	return c
}

// Engine wraps a protocol.Engine with proposer-side batching.
type Engine struct {
	inner protocol.Engine
	cfg   Config

	mu      sync.Mutex
	pending []command.Command
	dones   []protocol.DoneFunc
	timer   *time.Timer
	stopped bool
}

var _ protocol.Engine = (*Engine)(nil)

// Wrap returns a batching engine around inner. The inner engine's applier
// must be wrapped with NewApplier so batches are unpacked on execution.
func Wrap(inner protocol.Engine, cfg Config) *Engine {
	return &Engine{inner: inner, cfg: cfg.withDefaults()}
}

// Start starts the inner engine.
func (e *Engine) Start() { e.inner.Start() }

// Stop flushes and stops the inner engine.
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	dones := e.dones
	e.pending, e.dones = nil, nil
	e.mu.Unlock()
	for _, done := range dones {
		if done != nil {
			done(protocol.Result{Err: protocol.ErrStopped})
		}
	}
	e.inner.Stop()
}

// Submit buffers the command; the whole buffer is proposed as one batch
// command when the window elapses or the buffer fills. Consensus-control
// commands bypass batching (buried inside a batch payload they would
// escape their delivery-time interception), as do batches themselves —
// re-packing an already-batched command would nest payloads for no win.
func (e *Engine) Submit(cmd command.Command, done protocol.DoneFunc) {
	if cmd.Op.IsControl() || cmd.Op == command.OpBatch {
		e.inner.Submit(cmd, done)
		return
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		if done != nil {
			done(protocol.Result{Err: protocol.ErrStopped})
		}
		return
	}
	e.pending = append(e.pending, cmd)
	e.dones = append(e.dones, done)
	full := len(e.pending) >= e.cfg.MaxSize
	if e.timer == nil && !full {
		e.timer = time.AfterFunc(e.cfg.Window, e.flush)
	}
	e.mu.Unlock()
	if full {
		e.flush()
	}
}

// flush proposes the buffered commands as one batch.
func (e *Engine) flush() {
	e.mu.Lock()
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	cmds, dones := e.pending, e.dones
	e.pending, e.dones = nil, nil
	stopped := e.stopped
	e.mu.Unlock()
	if len(cmds) == 0 || stopped {
		return
	}
	if len(cmds) == 1 {
		e.inner.Submit(cmds[0], dones[0])
		return
	}
	batched, err := Pack(cmds)
	if err != nil {
		for _, done := range dones {
			if done != nil {
				done(protocol.Result{Err: err})
			}
		}
		return
	}
	e.inner.Submit(batched, func(res protocol.Result) {
		for _, done := range dones {
			if done != nil {
				done(res)
			}
		}
	})
}

// Pack encodes commands into a single batch command whose key set is the
// union of the members' keys, in the members' order: the same members
// always pack to the same command. The buffer starts at what a handful
// of small members take and grows by append. The error is always nil (the
// encoding cannot fail); it stays in the signature because bench/ calls
// Pack.
func Pack(cmds []command.Command) (command.Command, error) {
	payload := codec.AppendCommands(make([]byte, 0, 128), cmds)
	return command.Command{Op: command.OpBatch, Payload: payload}.WithKeys(command.KeyUnion(cmds)), nil
}

// Unpack decodes a batch command's members; they alias nothing of its
// payload.
func Unpack(batched command.Command) ([]command.Command, error) {
	r := codec.NewReader(batched.Payload)
	cmds := r.Commands()
	if err := r.End(); err != nil {
		return nil, err
	}
	return cmds, nil
}

// Applier unpacks batch commands before handing them to the node state
// machine; it is itself a protocol.TimestampedAtomicApplier, so it can
// stand wherever the store does.
type Applier struct {
	Inner protocol.TimestampedAtomicApplier
}

var _ protocol.TimestampedAtomicApplier = Applier{}

// NewApplier wraps inner so it can execute batches.
func NewApplier(inner protocol.TimestampedAtomicApplier) Applier {
	return Applier{Inner: inner}
}

// Apply is ApplyAt at timestamp.Zero. No interface requires it; it stays
// because the benchmark's timing wrapper (bench/rig.go) calls it.
func (a Applier) Apply(cmd command.Command) []byte {
	return a.ApplyAt(cmd, timestamp.Zero)
}

// ApplyAt implements protocol.TimestampedApplier: every member of a
// batch was decided — and is therefore stamped — at the batch's
// timestamp.
func (a Applier) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	if cmd.Op != command.OpBatch {
		return a.Inner.ApplyAt(cmd, ts)
	}
	cmds, err := Unpack(cmd)
	if err != nil {
		return nil
	}
	a.ApplyAllAt(cmds, ts)
	return nil
}

// ApplyAll is ApplyAllAt at timestamp.Zero. No interface requires it; it
// stays because the benchmark's timing wrapper (bench/rig.go) calls it.
func (a Applier) ApplyAll(cmds []command.Command) [][]byte {
	return a.ApplyAllAt(cmds, timestamp.Zero)
}

// ApplyAllAt implements protocol.TimestampedAtomicApplier. Nested batch
// members are flattened first — the inner applier sees only executable
// ops, never an OpBatch it would drop. When flattening occurs the
// returned results align with the flattened op list, not the input
// (batch members have no individual results).
func (a Applier) ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte {
	return a.Inner.ApplyAllAt(flatten(cmds), ts)
}

// flatten expands OpBatch members recursively; undecodable batches are
// dropped, matching Apply's behavior for a corrupt payload.
func flatten(cmds []command.Command) []command.Command {
	nested := false
	for _, c := range cmds {
		if c.Op == command.OpBatch {
			nested = true
			break
		}
	}
	if !nested {
		return cmds
	}
	flat := make([]command.Command, 0, len(cmds))
	for _, c := range cmds {
		if c.Op != command.OpBatch {
			flat = append(flat, c)
			continue
		}
		if members, err := Unpack(c); err == nil {
			flat = append(flat, flatten(members)...)
		}
	}
	return flat
}
