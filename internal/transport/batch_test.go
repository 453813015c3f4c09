package transport

import (
	"fmt"
	"testing"
	"time"
)

// TestInboxBatchDrainsPendingRun pins the core batch-inbox promise: one
// receive yields every envelope pending for the (group, channel) pair, in
// the order they were deposited.
func TestInboxBatchDrainsPendingRun(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("b", 1, Data, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Everything was deposited before the consumer attached: the whole run
	// must arrive as a single batch.
	batch := <-b.InboxBatch(1, Data)
	if len(batch) != n {
		t.Fatalf("first receive yielded %d envelopes, want %d", len(batch), n)
	}
	for i, env := range batch {
		if env.From != "a" || env.Msg != fmt.Sprintf("m%d", i) {
			t.Fatalf("envelope %d = %+v, FIFO order broken", i, env)
		}
	}
}

// TestInboxBatchReuseWindow pins the ownership contract: a received slice
// stays readable until the consumer's next receive from the same channel.
func TestInboxBatchReuseWindow(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)
	in := b.InboxBatch(1, Data)

	next := 0
	for round := 0; round < 8; round++ {
		k := 3 + round
		for i := 0; i < k; i++ {
			if err := a.Send("b", 1, Data, next+i); err != nil {
				t.Fatal(err)
			}
		}
		var got []Envelope
		for len(got) < k {
			batch, ok := <-in
			if !ok {
				t.Fatal("inbox closed early")
			}
			// Read the batch fully before the next receive: that is the
			// window the contract guarantees.
			for _, env := range batch {
				if env.Msg != next+len(got) {
					t.Fatalf("round %d: got %v at position %d, want %d",
						round, env.Msg, len(got), next+len(got))
				}
				got = append(got, env)
			}
		}
		next += k
	}
}

// TestInboxBatchClosesOnEndpointClose pins shutdown: the batch channel
// closes when the endpoint does.
func TestInboxBatchClosesOnEndpointClose(t *testing.T) {
	net := NewMemNetwork()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	b.Register(1)
	in := b.InboxBatch(1, Data)
	b.Close()
	select {
	case _, ok := <-in:
		if ok {
			t.Fatal("expected closed channel, got a batch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch inbox never closed")
	}
}

// TestInboxBatchMixedChannelsIndependent pins that inboxes are per
// (group, channel): Data and Ctl arrivals on one endpoint land in separate
// batch streams, each readable on its own.
func TestInboxBatchMixedChannelsIndependent(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)
	dataIn := b.InboxBatch(1, Data)
	ctlIn := b.InboxBatch(1, Ctl)

	if err := a.Send("b", 1, Data, "d"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", 1, Ctl, "c"); err != nil {
		t.Fatal(err)
	}
	if batch := <-dataIn; len(batch) == 0 || batch[0].Msg != "d" {
		t.Fatalf("data batch = %v", batch)
	}
	if batch := <-ctlIn; len(batch) == 0 || batch[0].Msg != "c" {
		t.Fatalf("ctl batch = %v", batch)
	}
}
