package caesar

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Cluster is an in-process CAESAR deployment: N nodes wired through a
// simulated network. It is the fastest way to embed a replicated store in
// tests, examples and single-binary applications; multi-process
// deployments use cmd/caesar-server instead.
type Cluster struct {
	net   *memnet.Network
	cfg   clusterConfig
	nodes []*Node

	// nodeMu guards the nodes slice's elements: Restart swaps one while
	// Node, Crash, Close and the audit collector read them.
	nodeMu sync.RWMutex
	// auditMu guards the lazily built cross-replica audit collector.
	auditMu   sync.Mutex
	collector *audit.Collector
}

// ClusterOption customises NewLocalCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	delay         memnet.DelayFunc
	jitter        time.Duration
	opts          Options
	shards        int
	dataDir       string
	auditInterval time.Duration
}

// WithGeoLatency injects the paper's five-site EC2 round-trip times
// (Virginia, Ohio, Frankfurt, Ireland, Mumbai) scaled by scale: 1.0 is
// real WAN latency, 0.1 runs ten times faster with identical ratios.
func WithGeoLatency(scale float64) ClusterOption {
	return func(c *clusterConfig) { c.delay = memnet.GeoDelay(scale) }
}

// WithUniformLatency gives every link the same one-way delay.
func WithUniformLatency(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.delay = memnet.UniformDelay(d) }
}

// WithJitter adds uniform random jitter in [0, d) to every message.
func WithJitter(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.jitter = d }
}

// WithNodeOptions applies node-level options to every node.
func WithNodeOptions(opts Options) ClusterOption {
	return func(c *clusterConfig) { c.opts = opts }
}

// WithShards runs g independent consensus groups on every node and routes
// each command to a group by consistent hashing of its key (ShardOf).
// Commands on different shards are ordered and executed fully in parallel;
// commands on the same key always share a shard, so conflicting commands
// keep one cluster-wide order. Multi-key transactions (ProposeTx) whose
// keys span groups commit atomically through the cross-shard layer at the
// merged (max) of the groups' stable timestamps; cross-shard transactions
// are atomic but not strictly serializable against each other. The group
// count is elastic: Node.Resize changes it live, with consensus-fenced
// state handoff (internal/rebalance). g < 1 is treated as 1, which is also
// the count without this option: a one-group cluster is the same node at
// G = 1 and resizes like any other. A node runs at most 4,096 groups, and
// NewLocalCluster refuses more.
func WithShards(g int) ClusterOption {
	return func(c *clusterConfig) { c.shards = g }
}

// WithDataDir makes every node durable: node i logs to dir/node<i>
// (internal/wal) and can be rebuilt from it after a crash with Restart.
func WithDataDir(dir string) ClusterOption {
	return func(c *clusterConfig) { c.dataDir = dir }
}

// WithTrace shares one trace buffer across every node of the cluster:
// each node records its protocol milestones (tagged with its node ID)
// into t, so t.CommandHistory shows a command's full cross-replica story
// — proposal on the leader, waits and acks on the acceptors, fsyncs and
// deliveries everywhere.
func WithTrace(t *Trace) ClusterOption {
	return func(c *clusterConfig) { c.opts.Trace = t }
}

// nodeDir is node i's data subdirectory; empty when the cluster is not
// durable.
func (cfg clusterConfig) nodeDir(i int) string {
	if cfg.dataDir == "" {
		return ""
	}
	return filepath.Join(cfg.dataDir, fmt.Sprintf("node%d", i))
}

// NewLocalCluster builds and starts an n-node cluster. n must be at least
// three (the protocol needs a meaningful quorum).
func NewLocalCluster(n int, options ...ClusterOption) (*Cluster, error) {
	if n < 3 {
		return nil, fmt.Errorf("caesar: cluster needs at least 3 nodes, got %d", n)
	}
	var cfg clusterConfig
	for _, opt := range options {
		opt(&cfg)
	}
	net := memnet.New(memnet.Config{Nodes: n, Delay: cfg.delay, Jitter: cfg.jitter})
	c := &Cluster{net: net, cfg: cfg}
	for i := 0; i < n; i++ {
		node, err := newNode(net.Endpoint(timestamp.NodeID(i)), cfg.opts, cfg.shards, cfg.nodeDir(i))
		if err != nil {
			for _, built := range c.nodes {
				built.Close()
			}
			net.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	if cfg.auditInterval > 0 {
		c.auditor().Start()
	}
	return c, nil
}

// Node returns the i-th node — after a Restart, the new incarnation.
func (c *Cluster) Node(i int) *Node {
	c.nodeMu.RLock()
	defer c.nodeMu.RUnlock()
	return c.nodes[i]
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Crash disconnects and stops a node, simulating a failure. The survivors
// detect it and recover its in-flight commands. On a durable cluster the
// node's data dir is left behind for Restart.
func (c *Cluster) Crash(i int) {
	c.net.Crash(timestamp.NodeID(i))
	c.Node(i).Close()
}

// Restart rebuilds a crashed node from its data directory and rejoins it
// to the cluster: the new incarnation replays its snapshot + write-ahead
// log tail, resumes the routing epoch it crashed at, and relearns the
// decisions it missed while down from the leaders' Stable retransmission
// — every command it acknowledged before the crash is applied exactly
// once, never twice. Requires a cluster built WithDataDir; the node must
// have been crashed (or closed) first.
func (c *Cluster) Restart(i int) error {
	if c.cfg.dataDir == "" {
		return fmt.Errorf("caesar: Restart needs a durable cluster (build it with WithDataDir)")
	}
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("caesar: no node %d", i)
	}
	if !c.Node(i).closed.Load() {
		return fmt.Errorf("caesar: node %d is still running (Crash it first)", i)
	}
	c.net.Restore(timestamp.NodeID(i))
	node, err := newNode(c.net.Endpoint(timestamp.NodeID(i)), c.cfg.opts, c.cfg.shards, c.cfg.nodeDir(i))
	if err != nil {
		return err
	}
	c.nodeMu.Lock()
	c.nodes[i] = node
	c.nodeMu.Unlock()
	return nil
}

// Close stops the background auditor (if any), every node and the
// network.
func (c *Cluster) Close() {
	c.auditMu.Lock()
	col := c.collector
	c.auditMu.Unlock()
	if col != nil {
		col.Stop()
	}
	c.nodeMu.RLock()
	nodes := append([]*Node(nil), c.nodes...)
	c.nodeMu.RUnlock()
	for _, n := range nodes {
		n.Close()
	}
	c.net.Close()
}
