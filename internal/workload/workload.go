// Package workload generates the benchmark workload of §VI: clients update
// keys of a replicated key-value store, and a command conflicts with
// another when both access the same key. A command picks its key from a
// shared pool of 100 keys with probability equal to the configured conflict
// percentage, and from a private (per-client, never-reused) space
// otherwise — "by categorizing a workload with 10% of conflicting commands,
// we refer to the fact that 10% of the accessed keys belong to the shared
// pool".
package workload

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
)

// DefaultSharedPool is the paper's shared pool size.
const DefaultSharedPool = 100

// valueSize is the payload size: the paper's command size is 15 bytes
// including key, value, request ID and operation type, which leaves 8
// bytes of value.
const valueSize = 8

// Config parametrises a generator.
type Config struct {
	// ConflictPct in [0,100]: probability a command targets the shared
	// pool.
	ConflictPct float64
	// SharedPool is the number of shared keys (default 100).
	SharedPool int
	// Seed makes the stream reproducible.
	Seed int64
}

// Generator produces the command stream of one client. Not safe for
// concurrent use: give each client its own.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	prefix string
	seq    uint64
	value  []byte
}

// NewGenerator builds a client generator; prefix namespaces the private
// keys so distinct clients never collide.
func NewGenerator(cfg Config, prefix string) *Generator {
	if cfg.SharedPool <= 0 {
		cfg.SharedPool = DefaultSharedPool
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	g := &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		prefix: prefix,
		value:  make([]byte, valueSize),
	}
	g.rng.Read(g.value)
	return g
}

// Next returns the client's next command: an update of one key.
func (g *Generator) Next() command.Command {
	return command.Put(g.nextKey(), g.value)
}

// nextKey draws one key per the conflict rule of §VI.
func (g *Generator) nextKey() string {
	if g.rng.Float64()*100 < g.cfg.ConflictPct {
		return "shared-" + strconv.Itoa(g.rng.Intn(g.cfg.SharedPool))
	}
	g.seq++
	return g.prefix + "-" + strconv.FormatUint(g.seq, 36)
}

// ClientStats aggregates one client pool's outcomes.
type ClientStats struct {
	mu        sync.Mutex
	completed int64
	failed    int64
}

// Completed returns the number of successfully executed commands.
func (s *ClientStats) Completed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// Failed returns the number of failed or timed-out commands.
func (s *ClientStats) Failed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

func (s *ClientStats) add(ok bool) {
	s.mu.Lock()
	if ok {
		s.completed++
	} else {
		s.failed++
	}
	s.mu.Unlock()
}

// Engines selects a submission target; clients use it to fail over when
// their node crashes (the Fig 12 scenario: "the clients from that node
// timeout and reconnect to other nodes").
type Engines interface {
	// Engine returns the engine for a node, or nil if it is down.
	Engine(node int) protocol.Engine
	// Nodes returns the cluster size.
	Nodes() int
}

// RunClosedLoop drives one client in a closed loop against node home until
// ctx is cancelled: submit, wait for execution, repeat (the latency
// experiments place "10 clients co-located with each node"). On timeout or
// node failure the client reconnects to the next live node.
func RunClosedLoop(ctx context.Context, engines Engines, home int, gen *Generator, timeout time.Duration, stats *ClientStats) {
	node := home
	for ctx.Err() == nil {
		eng := engines.Engine(node)
		if eng == nil {
			node = (node + 1) % engines.Nodes()
			continue
		}
		ch := make(chan protocol.Result, 1)
		eng.Submit(gen.Next(), func(res protocol.Result) {
			select {
			case ch <- res:
			default:
			}
		})
		timer := time.NewTimer(timeout)
		select {
		case res := <-ch:
			timer.Stop()
			stats.add(res.Err == nil)
			if res.Err != nil {
				node = (node + 1) % engines.Nodes()
			}
		case <-timer.C:
			stats.add(false)
			node = (node + 1) % engines.Nodes()
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
}
