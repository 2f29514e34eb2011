// Batched-vs-unbatched equivalence at device level: the reference switch
// under seeded IMIX load must produce byte-identical counters, event
// counts, per-module tick counts and captured frames for every clock
// batch size. This is the device-scale companion of internal/sim's
// trace-equivalence tests, and the invariant the fleet's determinism
// contract relies on.
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/workload"
)

// runSwitchIMIX drives one reference switch with deterministic IMIX
// traffic at the given clock batch size (0 = sim.DefaultBatch) and
// returns its full counter snapshot, per-module tick counts and
// everything the taps captured.
func runSwitchIMIX(t *testing.T, batch int) (map[string]uint64, map[string]uint64, []netfpga.RxFrame) {
	t.Helper()
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	if batch > 0 {
		dev.Clock.SetBatch(batch)
	}
	if err := switchp.New(switchp.Config{}).Build(dev); err != nil {
		t.Fatal(err)
	}
	taps := make([]*netfpga.PortTap, 4)
	for i := range taps {
		taps[i] = dev.Tap(i)
	}
	gen, err := workload.New(workload.Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		taps[i%4].Send(gen.Next())
		if i%64 == 63 {
			dev.RunFor(40 * hw.Microsecond)
		}
	}
	dev.RunUntilIdle(0)
	var rx []netfpga.RxFrame
	for _, tp := range taps {
		rx = append(rx, tp.Received()...)
	}
	return dev.Snapshot(), dev.Dsn.ModuleTicks(), rx
}

func TestDeviceBatchEquivalence(t *testing.T) {
	refSnap, refTicks, refRx := runSwitchIMIX(t, 1)
	if refSnap["sim.events"] == 0 || len(refRx) == 0 {
		t.Fatal("reference run did nothing")
	}
	for _, batch := range []int{2, 16, 0 /* DefaultBatch */, 512} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			snap, ticks, rx := runSwitchIMIX(t, batch)
			if len(snap) != len(refSnap) {
				t.Fatalf("snapshot has %d counters, want %d", len(snap), len(refSnap))
			}
			for k, want := range refSnap {
				if got := snap[k]; got != want {
					t.Errorf("counter %s = %d, want %d", k, got, want)
				}
			}
			if len(ticks) != len(refTicks) {
				t.Fatalf("tick counts cover %d modules, want %d", len(ticks), len(refTicks))
			}
			for m, want := range refTicks {
				if got := ticks[m]; got != want {
					t.Errorf("module %s ticked %d cycles, want %d", m, got, want)
				}
			}
			if len(rx) != len(refRx) {
				t.Fatalf("captured %d frames, want %d", len(rx), len(refRx))
			}
			for i := range rx {
				if rx[i].At != refRx[i].At || !bytes.Equal(rx[i].Data, refRx[i].Data) {
					t.Fatalf("captured frame %d differs (at %d vs %d)", i, rx[i].At, refRx[i].At)
				}
			}
		})
	}
}
