package bus

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
)

func TestSubscribeFuncDeliversRetainedOnSubscribe(t *testing.T) {
	n := newTestNet(t, "A", "B")
	b := newTestBus(t, n, "A", "B")
	topic := MakeTopic("c1", "e1", "vnf_x", "A", "instances")
	if err := b.Publish("A", topic, "v1", 8); err != nil {
		t.Fatal(err)
	}

	// Same site: the retained copy is handed over before SubscribeFunc
	// returns.
	var local []any
	sub, err := b.SubscribeFunc("A", topic, func(p Publication) { local = append(local, p.Payload) })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if len(local) != 1 || local[0] != "v1" {
		t.Fatalf("local retained delivery = %v, want [v1]", local)
	}

	// Remote site: the home proxy answers the filter install with it.
	got := make(chan any, 4)
	rsub, err := b.SubscribeFunc("B", topic, func(p Publication) { got <- p.Payload })
	if err != nil {
		t.Fatal(err)
	}
	defer rsub.Cancel()
	select {
	case v := <-got:
		if v != "v1" {
			t.Fatalf("remote retained delivery = %v, want v1", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote subscriber never received the retained value")
	}
}

// TestSubscribeFuncNeverSheds publishes faster than a one-deep channel
// subscriber can drain, so that subscriber sheds; the callback on the
// same topic must still see every publication, in order.
func TestSubscribeFuncNeverSheds(t *testing.T) {
	n := newTestNet(t, "A")
	b := newTestBus(t, n, "A")
	topic := MakeTopic("c1", "e1", "vnf_x", "A", "instances")

	slow, err := b.Subscribe("A", topic, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Cancel()
	var shed atomic.Uint64
	slow.SetOnDrop(func() { shed.Add(1) })

	const total = 5000
	var mu sync.Mutex
	var seen []int
	sub, err := b.SubscribeFunc("A", topic, func(p Publication) {
		mu.Lock()
		seen = append(seen, p.Payload.(int))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for i := 0; i < total; i++ {
		if err := b.Publish("A", topic, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	if shed.Load() == 0 {
		t.Fatal("the one-deep channel subscriber shed nothing: the publication rate proves nothing")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Fatalf("callback saw %d of %d publications", len(seen), total)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("publication %d delivered as %d: out of order", i, v)
		}
	}
}

// TestSubscribeFuncNoCallAfterCancel cancels while publishers run on two
// sites; once Cancel has returned the callback must never run again.
func TestSubscribeFuncNoCallAfterCancel(t *testing.T) {
	n := newTestNet(t, "A", "B")
	b := newTestBus(t, n, "A", "B")
	topic := MakeTopic("c1", "e1", "vnf_x", "A", "instances")

	var cancelled atomic.Bool
	var calls, late atomic.Uint64
	sub, err := b.SubscribeFunc("B", topic, func(Publication) {
		calls.Add(1)
		if cancelled.Load() {
			late.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lsub, err := b.SubscribeFunc("A", topic, func(Publication) {
		calls.Add(1)
		if cancelled.Load() {
			late.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, site := range []simnet.SiteID{"A", "B"} {
		wg.Add(1)
		go func(site simnet.SiteID) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = b.Publish(site, topic, i, 8)
				time.Sleep(50 * time.Microsecond)
			}
		}(site)
	}
	if !testutil.Poll(2*time.Second, func() bool { return calls.Load() > 100 }) {
		t.Fatal("publications never reached the callbacks")
	}
	sub.Cancel()
	lsub.Cancel()
	cancelled.Store(true)
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := late.Load(); n > 0 {
		t.Fatalf("%d callbacks ran after Cancel returned", n)
	}
}

// TestStaleReplayNeverRollsBack hands a subscription the retained value
// after a newer publication won the race to it: the replay must be
// skipped, while live publications are all delivered whatever their
// order.
func TestStaleReplayNeverRollsBack(t *testing.T) {
	var got []any
	s := &Subscription{fn: func(p Publication) { got = append(got, p.Payload) }}
	s.deliver(Publication{Payload: "live5"}, 5, false)
	s.deliver(Publication{Payload: "replay3"}, 3, true)
	s.deliver(Publication{Payload: "live4"}, 4, false)
	s.deliver(Publication{Payload: "replay5"}, 5, true)
	s.deliver(Publication{Payload: "replay6"}, 6, true)
	want := []any{"live5", "live4", "replay6"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}
