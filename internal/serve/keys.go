package serve

import "math/rand"

// KeyDist picks keys for KV traffic. Implementations draw from the
// client's derived workload PRNG so the key sequence is seed-pure.
type KeyDist interface {
	Pick() uint64
}

// UniformKeys picks uniformly from [0, N).
type UniformKeys struct {
	n   uint64
	rng *rand.Rand
}

// NewUniformKeys returns a uniform distribution over n keys.
func NewUniformKeys(n uint64, rng *rand.Rand) *UniformKeys {
	return &UniformKeys{n: n, rng: rng}
}

func (k *UniformKeys) Pick() uint64 { return uint64(k.rng.Int63n(int64(k.n))) }

// HotKeys sends fraction hotFrac of traffic to the first hotCount keys
// (uniformly among them) and the rest uniformly across the full space —
// the classic hot-key skew knob: hotFrac=0.5, hotCount=1 means half of all
// traffic hammers a single key, concentrating load on one shard.
type HotKeys struct {
	n        uint64
	hotCount uint64
	hotFrac  float64
	rng      *rand.Rand
}

// NewHotKeys builds a hot-key distribution over n keys.
func NewHotKeys(n, hotCount uint64, hotFrac float64, rng *rand.Rand) *HotKeys {
	if hotCount < 1 {
		hotCount = 1
	}
	return &HotKeys{n: n, hotCount: hotCount, hotFrac: hotFrac, rng: rng}
}

func (k *HotKeys) Pick() uint64 {
	if k.rng.Float64() < k.hotFrac {
		return uint64(k.rng.Int63n(int64(k.hotCount)))
	}
	return uint64(k.rng.Int63n(int64(k.n)))
}
