package hostos

import "virtnet/internal/sim"

// ReplacementPolicy selects the victim endpoint frame when a load finds all
// frames occupied. The paper's system replaces at random; LRU and FIFO are
// provided for the ablation benches.
type ReplacementPolicy int

const (
	ReplaceRandom ReplacementPolicy = iota
	ReplaceLRU
	ReplaceFIFO
)

func (r ReplacementPolicy) String() string {
	switch r {
	case ReplaceLRU:
		return "lru"
	case ReplaceFIFO:
		return "fifo"
	}
	return "random"
}

// The host OS costs around endpoint segment management. Values reflect a
// Solaris 2.6 kernel on a 167 MHz UltraSPARC: page faults, segment driver
// work, and kernel thread wakeups are each tens to hundreds of microseconds.
// No experiment varies them; Config holds the settings that are varied.
const (
	// faultCost is the trap plus segment-driver fault handling charged to
	// a thread that writes a non-resident endpoint.
	faultCost = 25 * sim.Microsecond
	// loadCost / unloadCost are the driver-side CPU costs of a residency
	// transition (translation updates, driver/NI protocol), charged on the
	// remap machine in addition to the NI's SBUS DMA time.
	loadCost   = 450 * sim.Microsecond
	unloadCost = 450 * sim.Microsecond
	// remapScanDelay models the background thread servicing requests
	// periodically rather than instantly.
	remapScanDelay = 150 * sim.Microsecond
	// notifyCost is the kernel path that posts a communication event and
	// wakes a blocked thread (§3.3).
	notifyCost = 30 * sim.Microsecond
	// pageInCost is charged when a pageout'd endpoint (on-disk, Fig. 2) is
	// touched again.
	pageInCost = 6 * sim.Millisecond
)

// Config holds the host OS settings that experiments vary.
type Config struct {
	// Quantum is the local scheduler's time slice for Compute.
	Quantum sim.Duration
	// Policy selects the frame replacement policy.
	Policy ReplacementPolicy
	// DisableHostRW removes the on-host read-write state (the paper's
	// original design, §6.4.1): a thread writing a non-resident endpoint
	// then blocks for the full duration of the remap.
	DisableHostRW bool
}

// DefaultConfig returns the calibrated host OS model.
func DefaultConfig() Config {
	return Config{
		Quantum: 10 * sim.Millisecond,
		Policy:  ReplaceRandom,
	}
}
