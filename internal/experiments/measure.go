package experiments

import (
	"repro/netfpga"
	"repro/netfpga/sweep"
)

// measureGoodput saturates the given taps (tap i repeatedly sends
// streams[i]; nil entries stay silent) through a warmup and a timed
// window, and returns the bytes received across all taps strictly
// within the window. The taps count instead of capturing — only totals
// are reported, and counting is host-side bookkeeping that leaves the
// traffic and every device counter bit-identical. The total is the
// count delta from warmup end to window end, so queued-but-undelivered
// frames are excluded and goodput can never exceed the wire.
func measureGoodput(dev *netfpga.Device, taps []*netfpga.PortTap, streams [][]byte,
	warmup, window netfpga.Time) uint64 {

	topUp := func() {
		for i, tap := range taps {
			if i >= len(streams) || streams[i] == nil {
				continue
			}
			for tap.MAC().TxQueue().Bytes() < 1<<16 {
				if !tap.Send(streams[i]) {
					break
				}
			}
		}
	}
	run := func(dur netfpga.Time) {
		end := dev.Now() + dur
		for dev.Now() < end {
			topUp()
			dev.RunFor(netfpga.Microsecond)
		}
	}
	rxBytes := func() (total uint64) {
		for _, tap := range taps {
			_, b := tap.Counts()
			total += b
		}
		return total
	}
	for _, tap := range taps {
		tap.Received() // release earlier captures; from here on the tap counts
		tap.SetCounting(true)
	}
	run(warmup)
	base := rxBytes()
	run(window)
	return rxBytes() - base
}

// designDrops sums the design's queue-overflow drops — one
// classification rule for loss, shared with the sweep's generic
// measure so tables and sweep cells can never disagree.
func designDrops(dev *netfpga.Device) uint64 { return sweep.QueueDrops(dev) }
