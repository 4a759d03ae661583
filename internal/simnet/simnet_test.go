package simnet

import (
	"sync"
	"testing"
	"time"
)

func attach(t *testing.T, n *Network, site SiteID, host string) *Endpoint {
	t.Helper()
	ep, err := n.Attach(Addr{Site: site, Host: host}, 1024)
	if err != nil {
		t.Fatalf("Attach(%s/%s): %v", site, host, err)
	}
	return ep
}

func TestLocalDeliveryImmediate(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s1", "b")
	start := time.Now()
	if err := a.Send(b.Addr(), "hi", 0); err != nil {
		t.Fatal(err)
	}
	m := <-b.Inbox()
	if m.Payload != "hi" || m.From != a.Addr() {
		t.Errorf("got %+v", m)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("local delivery took too long")
	}
}

func TestWANDelayApplied(t *testing.T) {
	n := New(1)
	defer n.Close()
	n.SetPath("s1", "s2", PathProfile{Delay: 30 * time.Millisecond})
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s2", "b")
	start := time.Now()
	if err := a.Send(b.Addr(), 1, 0); err != nil {
		t.Fatal(err)
	}
	<-b.Inbox()
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("delivery took %v, want ≥ ~30ms", el)
	}
}

func TestFIFOOrderAcrossWAN(t *testing.T) {
	n := New(1)
	defer n.Close()
	n.SetPath("s1", "s2", PathProfile{Delay: 5 * time.Millisecond})
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s2", "b")
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		m := <-b.Inbox()
		if m.Payload.(int) != i {
			t.Fatalf("out of order: got %v at position %d", m.Payload, i)
		}
	}
}

func TestBandwidthSerializationDelay(t *testing.T) {
	n := New(1)
	defer n.Close()
	// 1 MB/s bandwidth, no propagation delay. 10 messages × 10 KB =
	// 100 KB → ≥ 100 ms to drain.
	n.SetPath("s1", "s2", PathProfile{Bandwidth: 1e6})
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s2", "b")
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), i, 10000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		<-b.Inbox()
	}
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Errorf("10×10KB over 1MB/s took %v, want ≈ 100ms", el)
	}
}

func TestLossDropsSomeMessages(t *testing.T) {
	n := New(42)
	defer n.Close()
	n.SetPath("s1", "s2", PathProfile{Delay: time.Millisecond, Loss: 0.5})
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s2", "b")
	const count = 400
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	got := len(b.inbox)
	if got == 0 || got == count {
		t.Errorf("received %d of %d with 50%% loss; want strictly between", got, count)
	}
	if got < count/4 || got > count*3/4 {
		t.Errorf("received %d of %d, want around half", got, count)
	}
}

func TestSendToUnknownEndpoint(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	if err := a.Send(Addr{Site: "s9", Host: "x"}, 1, 0); err == nil {
		t.Error("send to unknown endpoint succeeded")
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := New(1)
	defer n.Close()
	attach(t, n, "s1", "a")
	if _, err := n.Attach(Addr{Site: "s1", Host: "a"}, 0); err == nil {
		t.Error("duplicate attach succeeded")
	}
}

func TestDetachClosesInbox(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	n.Detach(a.Addr())
	if _, ok := <-a.Inbox(); ok {
		t.Error("inbox not closed after detach")
	}
	b := attach(t, n, "s1", "b")
	if err := b.Send(a.Addr(), 1, 0); err == nil {
		t.Error("send to detached endpoint succeeded")
	}
}

// TestDetachAndCloseRaceSenders detaches endpoints and closes the
// network while senders keep sending to them, locally and across a
// delayed path: a send racing the inbox close must fail or drop, never
// panic or race.
func TestDetachAndCloseRaceSenders(t *testing.T) {
	for round := 0; round < 50; round++ {
		n := New(1)
		n.SetPath("s1", "s2", PathProfile{Delay: time.Microsecond})
		src := attach(t, n, "s1", "src")
		var targets []*Endpoint
		for _, site := range []SiteID{"s1", "s2"} {
			targets = append(targets, attach(t, n, site, "dst"))
		}
		var wg sync.WaitGroup
		for _, dst := range targets {
			wg.Add(1)
			go func(to Addr) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					_ = src.Send(to, i, 0)
				}
			}(dst.Addr())
		}
		n.Detach(targets[0].Addr())
		n.Close()
		wg.Wait()
	}
}

func TestCloseIdempotentAndTerminal(t *testing.T) {
	n := New(1)
	a := attach(t, n, "s1", "a")
	n.Close()
	n.Close()
	if err := a.Send(a.Addr(), 1, 0); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, err := n.Attach(Addr{Site: "s1", Host: "b"}, 0); err != ErrClosed {
		t.Errorf("attach after close = %v, want ErrClosed", err)
	}
}

func TestQueueFullDropsLocal(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	b, err := n.Attach(Addr{Site: "s1", Host: "b"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), 2, 0); err == nil {
		t.Error("second send into size-1 queue succeeded")
	}
}

func TestPathSymmetricAndLocalZero(t *testing.T) {
	n := New(1)
	defer n.Close()
	n.SetPath("x", "y", PathProfile{Delay: 7 * time.Millisecond})
	if n.Path("x", "y") != n.Path("y", "x") {
		t.Error("path not symmetric")
	}
	if n.Path("x", "x") != (PathProfile{}) {
		t.Error("intra-site path not zero")
	}
}
