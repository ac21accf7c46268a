package nic

// The NI's protocol counters, by handle: the firmware increments
// n.ctr[ctrX] and never hashes a name. NIC.C is the same counters by name
// (trace.NewCountersOver), for everything that reads them.
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
