package transport

import (
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
)

// waitCounter polls reg until the named counter reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := reg.Snapshot().Counters[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s = %d, want >= %d (all: %v)",
				name, reg.Snapshot().Counters[name], want, reg.Snapshot().Counters)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMemEndpointDropMetrics(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	reg := obs.NewRegistry()
	b.Instrument(obs.New(nil, reg, nil))

	// Traffic for a group b never registered is dropped and counted.
	if err := a.Send("b", 99, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Traffic on an undefined channel likewise, under its own reason.
	if err := a.Send("b", 99, Channel(200), tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, reg, "transport_dropped_total{reason=unknown_group}", 1)
	waitCounter(t, reg, "transport_dropped_total{reason=unknown_channel}", 1)
	if d := b.Drops(); d.DroppedUnknownGroup != 1 || d.DroppedUnknownChannel != 1 {
		t.Fatalf("DropStats = %+v, want 1/1", d)
	}
}

func TestTCPWireMetrics(t *testing.T) {
	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	a, err := NewTCPNetworkOpts("a", "127.0.0.1:0", nil, TCPOptions{Obs: obs.New(nil, regA, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNetworkOpts("b", "127.0.0.1:0", nil, TCPOptions{Obs: obs.New(nil, regB, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())

	const g = ident.GroupID(3)
	b.Register(g)
	inbox := reader(b, g, Data)

	const msgs = 5
	for i := 0; i < msgs; i++ {
		if err := a.Send("b", g, Data, tcpPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		recvOne(t, inbox)
	}

	waitCounter(t, regA, "tcp_envelopes_sent_total", msgs)
	waitCounter(t, regA, "tcp_frames_sent_total", 1)
	waitCounter(t, regB, "tcp_envelopes_recv_total", msgs)
	waitCounter(t, regB, "tcp_frames_recv_total", 1)

	snapA := regA.Snapshot()
	if snapA.Counters["tcp_bytes_sent_total"] == 0 {
		t.Fatal("tcp_bytes_sent_total stayed zero")
	}
	if h := snapA.Histograms["tcp_batch_envelopes"]; h.Count == 0 {
		t.Fatal("no batch-size samples")
	}
	// The obs mirrors and the atomic Stats() must agree once drained.
	st := a.Stats()
	if got := regA.Snapshot().Counters["tcp_envelopes_sent_total"]; got != st.EnvelopesSent {
		t.Fatalf("obs %d != Stats %d", got, st.EnvelopesSent)
	}

	// An envelope for an unregistered group is dropped and counted at the
	// receiver under the unknown_group reason.
	if err := a.Send("b", 77, Data, tcpPayload{N: 9}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, regB, "transport_dropped_total{reason=unknown_group}", 1)
}
