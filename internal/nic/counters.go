package nic

import (
	"math/bits"
	"slices"

	"virtnet/internal/obs"
)

// Counters is the NI's protocol counters, one int64 per ctr* constant,
// held inline in the NIC. Only the firmware writes them, on its shard's
// goroutine, and everything else reads them by name at a barrier or after a
// run, so nothing locks. touched has a bit per counter the firmware has
// added to, zero adds included: that, not a nonzero value, is what puts a
// counter in Snapshot.
type Counters struct {
	v       [numCtrs]int64
	touched uint64
}

// touched has a bit per counter: this fails to compile past 64 counters.
const _ = uint(64 - numCtrs)

// add adds n to counter i.
func (c *Counters) add(i int, n int64) {
	c.v[i] += n
	c.touched |= 1 << i
}

// Get returns counter name's value (zero if the NI has no such counter or
// never touched it).
func (c *Counters) Get(name string) int64 {
	if i := slices.Index(ctrNames[:], name); i >= 0 {
		return c.v[i]
	}
	return 0
}

// Snapshot returns every touched counter, in ctr* order.
func (c *Counters) Snapshot() []obs.CounterKV {
	out := make([]obs.CounterKV, 0, bits.OnesCount64(c.touched))
	for i, v := range c.v {
		if c.touched&(1<<i) != 0 {
			out = append(out, obs.CounterKV{Name: ctrNames[i], Value: v})
		}
	}
	return out
}

// The counters' indices; ctrNames holds their names.
const (
	ctrTxData = iota
	ctrTxBytes
	ctrTxAck
	ctrTxAckQueued
	ctrTxAckFlush
	ctrTxRetrans
	ctrTxRetransHeld
	ctrTxTimeoutReturn
	ctrTxUnbind
	ctrRxData
	ctrRxBytes
	ctrRxDelivered
	ctrRxDup
	ctrRxRejectedDup
	ctrRxE2EDup
	ctrRxMoved
	ctrRxPoolOverrun
	ctrRxDarkDrop
	ctrRxCRCDrop
	ctrRxAck
	ctrRxAckPiggy
	ctrRxAckStale
	ctrRxNackStale
	ctrRtsDelivered
	ctrRtsDropped
	ctrRtsOverflow
	ctrWRRRounds
	ctrWRRLoiterExpiry
	ctrDrvLoad
	ctrDrvUnload
	ctrDrvQuiesce
	ctrNICReboot
	ctrNICCrash
	ctrNICRestart
	// ctrRxNack+r and ctrTxNack+r count NACKs received and sent for
	// NackReason r.
	ctrRxNack
	ctrTxNack = ctrRxNack + numNackReasons
	numCtrs   = ctrTxNack + numNackReasons
)

var ctrNames = func() [numCtrs]string {
	names := [numCtrs]string{
		ctrTxData:          "tx.data",
		ctrTxBytes:         "tx.bytes",
		ctrTxAck:           "tx.ack",
		ctrTxAckQueued:     "tx.ack.queued",
		ctrTxAckFlush:      "tx.ack.flush",
		ctrTxRetrans:       "tx.retrans",
		ctrTxRetransHeld:   "tx.retrans_held",
		ctrTxTimeoutReturn: "tx.timeout_return",
		ctrTxUnbind:        "tx.unbind",
		ctrRxData:          "rx.data",
		ctrRxBytes:         "rx.bytes",
		ctrRxDelivered:     "rx.delivered",
		ctrRxDup:           "rx.dup",
		ctrRxRejectedDup:   "rx.rejected_dup",
		ctrRxE2EDup:        "rx.e2e_dup",
		ctrRxMoved:         "rx.moved",
		ctrRxPoolOverrun:   "rx.pool_overrun",
		ctrRxDarkDrop:      "rx.dark_drop",
		ctrRxCRCDrop:       "rx.crc_drop",
		ctrRxAck:           "rx.ack",
		ctrRxAckPiggy:      "rx.ack.piggy",
		ctrRxAckStale:      "rx.ack.stale",
		ctrRxNackStale:     "rx.nack.stale",
		ctrRtsDelivered:    "rts.delivered",
		ctrRtsDropped:      "rts.dropped",
		ctrRtsOverflow:     "rts.overflow",
		ctrWRRRounds:       "wrr.rounds",
		ctrWRRLoiterExpiry: "wrr.loiter_expiry",
		ctrDrvLoad:         "drv.load",
		ctrDrvUnload:       "drv.unload",
		ctrDrvQuiesce:      "drv.quiesce",
		ctrNICReboot:       "nic.reboot",
		ctrNICCrash:        "nic.crash",
		ctrNICRestart:      "nic.restart",
	}
	for r, reason := range nackNames {
		names[ctrRxNack+r] = "rx.nack." + reason
		names[ctrTxNack+r] = "tx.nack." + reason
	}
	return names
}()
