package main

import "testing"

// The generator's contract: the same seed yields the identical operation
// stream, different seeds differ. The golden hashes pin the default
// seed's stream, so a change to the generator — or to something it leans
// on, like the shard router — fails here instead of silently changing
// what every later benchmark run measures. Updating a golden hash
// re-baselines the benchmark and belongs in a PR of its own.
func TestGeneratorDeterminism(t *testing.T) {
	const n = 100000
	golden := map[string]uint64{
		"lan3-mem":      0xec28a2a9c1d7dbd6,
		"lan3-durable":  0xec28a2a9c1d7dbd6, // same cluster and mix as lan3-mem
		"lan3-mixed4g":  0xf5254497bd28555c,
		"geo5-conflict": 0x678d86e880b07a78,
	}
	for i := range workloads {
		w := &workloads[i]
		a, b := streamHash(w, defaultSeed, n), streamHash(w, defaultSeed, n)
		if a != b {
			t.Errorf("%s: seed %d produced two different streams", w.name, defaultSeed)
		}
		if other := streamHash(w, defaultSeed+1, n); other == a {
			t.Errorf("%s: seeds %d and %d produced the same stream", w.name, defaultSeed, defaultSeed+1)
		}
		if a != golden[w.name] {
			t.Errorf("%s: stream hash %#x, golden %#x", w.name, a, golden[w.name])
		}
	}
}
