package netswap

import (
	"testing"
	"time"

	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// TestZeroPagesTravelAsFlags: a batch of zero pages crosses the wire as
// flags and lands on the server's disk without bytes, reads back as the nil
// page, and is still charged a full page per page of simulated wire time.
func TestZeroPagesTravelAsFlags(t *testing.T) {
	s := sim.New(1)
	fab, err := New(s, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom", nil)
	if err != nil {
		t.Fatal(err)
	}
	var batch []stretchdrv.DirtyPage
	for i := 0; i < 20; i++ {
		batch = append(batch, stretchdrv.DirtyPage{VA: vm.VA(0x1000000000 + i*vm.PageSize)})
	}
	done := false
	s.Spawn("t", func(p *sim.Proc) {
		if _, err := rb.WritePages(p, batch, nil); err != nil {
			t.Errorf("WritePages: %v", err)
			return
		}
		buf := make([]byte, vm.PageSize)
		buf[0] = 1
		pg, err := rb.LoadPage(p, batch[7].VA, buf, nil)
		if err != nil || pg != nil {
			t.Errorf("LoadPage of a zero page = %v, %v; want the nil page", pg != nil, err)
		}
		if buf[0] != 1 {
			t.Error("LoadPage of a zero page wrote into the caller's buffer")
		}
		done = true
	})
	for i := 0; i < 100 && !done; i++ {
		s.RunFor(time.Second)
	}
	if !done {
		t.Fatal("test process did not finish")
	}
	if n := fab.Server.disk.StoredBytes(); n != 0 {
		t.Errorf("server disk holds %d bytes of zero pages", n)
	}
	if n := fab.Server.Stats.PagesWritten; n != 20 {
		t.Errorf("server wrote %d pages, want 20", n)
	}

	w := &request{Op: opWrite, VPNs: make([]vm.VPN, 16)}
	if got, want := w.wireSize(), rpcHeaderBytes+16*(8+int(vm.PageSize)); got != want {
		t.Errorf("zero write frame %d bytes, want %d", got, want)
	}
	r := &request{Op: opRead, VPNs: make([]vm.VPN, 1)}
	if got, want := r.wireSize(), rpcHeaderBytes+8; got != want {
		t.Errorf("read request frame %d bytes, want %d", got, want)
	}
	if got, want := (&reply{Op: opRead}).wireSize(), rpcHeaderBytes+int(vm.PageSize); got != want {
		t.Errorf("zero read reply frame %d bytes, want %d", got, want)
	}
	if got := (&reply{Op: opRead, Err: "no remote copy"}).wireSize(); got != rpcHeaderBytes {
		t.Errorf("error reply frame %d bytes, want %d", got, rpcHeaderBytes)
	}
	if got := (&reply{Op: opWrite}).wireSize(); got != rpcHeaderBytes {
		t.Errorf("write reply frame %d bytes, want %d", got, rpcHeaderBytes)
	}
}
