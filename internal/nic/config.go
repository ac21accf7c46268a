package nic

import "virtnet/internal/sim"

// The NI hardware and firmware cost model. The values model the LANai 4.3
// (37.5 MHz embedded CPU, 1 MB SRAM, single SBUS DMA engine) running the
// virtual-network firmware, calibrated so that the LogP microbenchmarks
// (Fig. 3) and transfer bandwidths (Fig. 4) land near the paper's
// measurements. All experiments share one calibration: the values below are
// constants, and Config holds only settings that take two values outside
// tests, plus the few a test shrinks to reach a protocol path in bounded
// virtual time (the configSeams of TestEveryConfigFieldIsSet).
const (
	// Endpoint frames and queues.
	FrameBytes = 8192 // bytes per endpoint frame image staged over the SBUS
	SendQDepth = 64   // send descriptors per endpoint (paper: 64)

	// Transport protocol.
	MTU             = 8192                  // max payload bytes per packet
	headerBytes     = 48                    // wire header per data packet
	ackBytes        = 16                    // wire size of ACK/NACK packets
	nackBackoffBase = 100 * sim.Microsecond // first retry delay after a transient NACK

	// piggyAckCost is the NI cost to process one piggybacked ack.
	piggyAckCost = sim.Duration(0.8 * 1000)
	// ackDelay bounds how long a piggybacked acknowledgment may wait for
	// a data packet to carry it.
	ackDelay = 40 * sim.Microsecond

	// Firmware CPU costs on the message latency path (see Config for the
	// "post" costs, which the sensitivity row varies).
	sendCritical  = sim.Duration(1.9 * 1000)  // descriptor fetch, header build, inject
	recvCritical  = sim.Duration(2.1 * 1000)  // demux, key check, deposit into endpoint
	ackRecv       = sim.Duration(2.0 * 1000)  // match ACK to channel, free it
	nackSend      = sim.Duration(2.0 * 1000)  // generate and inject a NACK
	nackRecv      = sim.Duration(1.8 * 1000)  // process NACK, requeue or return message
	checkOverhead = sim.Duration(0.55 * 1000) // error checking / defensive firmware per packet (paper: 1.1 us total)

	// DMA model. A single SBUS engine is staged through NI memory; the
	// firmware blocks on the transfer (store-and-forward staging), which is
	// what makes the SBUS the Fig. 4 bottleneck.
	dmaSetup             = 1 * sim.Microsecond // per-transfer engine programming
	sbusReadBps  float64 = 54e6                // host -> NI
	sbusWriteBps float64 = 46.8e6              // NI -> host (paper hardware limit: 46.8 MB/s)

	// depositLatency is the delay between the NI depositing a message and
	// the descriptor being visible to a host poll (SBUS read latency; the
	// paper credits AM-II's single VIS block load for keeping this small).
	depositLatency = sim.Duration(2.4 * 1000)

	// driverOpCost is the firmware handling per driver request.
	driverOpCost = 2 * sim.Microsecond

	// Host-side costs charged by the libraries above (LogP Os / Or) that no
	// experiment varies.
	OsReply      = sim.Duration(2.4 * 1000) // host CPU to write a short reply descriptor
	OrReply      = sim.Duration(1.5 * 1000) // host CPU to consume a short credit-returning reply
	PollResident = sim.Duration(1.4 * 1000) // host CPU to poll a resident endpoint (uncached NI memory)
	PollHost     = sim.Duration(0.3 * 1000) // host CPU to poll a non-resident endpoint (cacheable host memory)
)

// Config holds the parts of the NI cost model that experiments vary: frame
// and queue counts, the transport's timers, the §8 switches, the service
// discipline, and the firmware and host overheads the sensitivity row
// sweeps. InboundPool, MaxRetries, MinRTO, RetransMax and
// ReturnToSenderAfter take one value outside tests; tests shrink them to
// reach overrun, unbinding, the RTO clamp and return to sender.
type Config struct {
	// Endpoint frames.
	Frames int // resident endpoint frames (8 on LANai 4.3, 96 on newer boards)

	// Endpoint queue depth.
	RecvQDepth int // request receive queue entries per endpoint (paper: 32)

	// Transport protocol.
	Channels            int          // logical stop-and-wait channels per NI pair
	RetransBase         sim.Duration // base retransmission timeout
	RetransMax          sim.Duration // backoff cap
	MaxRetries          int          // consecutive retransmissions before channel unbind
	ReturnToSenderAfter sim.Duration // prolonged-absence bound: message returns to sender

	// AdaptiveTimeout enables the §8 future-work extension: per-peer
	// round-trip-time estimation (Jacobson mean/variance over reflected
	// link-header timestamps) schedules retransmissions instead of the
	// fixed base timeout.
	AdaptiveTimeout bool
	// MinRTO clamps the adaptive retransmission timeout.
	MinRTO sim.Duration

	// PiggybackAcks enables the §8 future-work extension: acknowledgments
	// ride in the headers of data packets flowing the other way, and
	// standalone acks are delayed briefly and batched, reducing network
	// occupancy.
	PiggybackAcks bool

	// InboundPool bounds the NI-memory staging pool for arriving data
	// packets. When it is full a packet is NACKed at arrival (the link
	// protocol's retransmission path); this is what makes receive-queue
	// overruns visible at 3+ clients in Fig. 6.
	InboundPool int

	// Service discipline.
	LoiterMsgs int          // max messages served per endpoint visit (paper: 64)
	LoiterTime sim.Duration // max time loitering on one endpoint (paper: ~4 ms)

	// Firmware CPU costs that occupy the NI CPU after the packet is
	// forwarded, and so contribute to the gap g but not to L.
	SendPost sim.Duration // channel bookkeeping, timer arm, descriptor retire
	AckSend  sim.Duration // generate and inject an ACK

	// Host-side costs charged by the libraries above (LogP Os / Or).
	OsShort sim.Duration // host CPU to write a short-message send descriptor
	OrShort sim.Duration // host CPU to read a short message and dispatch its handler
	OsBulk  sim.Duration // host CPU to write a bulk descriptor
	OrBulk  sim.Duration // host CPU to consume a bulk message
}

// DefaultConfig returns the calibrated virtual-network (AM-II) NI model.
func DefaultConfig() Config {
	return Config{
		Frames:     8,
		RecvQDepth: 32,

		Channels:            16,
		RetransBase:         8 * sim.Millisecond,
		RetransMax:          80 * sim.Millisecond,
		MaxRetries:          6,
		ReturnToSenderAfter: 200 * sim.Millisecond,

		MinRTO: 300 * sim.Microsecond,

		InboundPool: 32,

		LoiterMsgs: 64,
		LoiterTime: 4 * sim.Millisecond,

		SendPost: sim.Duration(3.6 * 1000),
		AckSend:  sim.Duration(1.8 * 1000),

		OsShort: sim.Duration(3.8 * 1000),
		OrShort: sim.Duration(3.2 * 1000),
		OsBulk:  sim.Duration(4.5 * 1000),
		OrBulk:  sim.Duration(3.5 * 1000),
	}
}
