package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/trace"
)

// spec describes one workload: the cluster shape, the group
// configuration and the load. Every active group has exactly one
// producer; the last member is the one that is paced (game-slow) or
// churned (vs-churn, and the membership probe of the other workloads).
type spec struct {
	name string
	why  string
	tcp  bool

	members   int
	producers []int // member index of the producer of active group i
	idle      int   // idle groups hosted by every node

	relation string // relation name, for the record
	gc       func() core.GroupConfig

	// batch is the largest MulticastBatch run a producer submits.
	batch int
	// rate is the offered load per producer in msgs/s; 0 is a closed
	// loop that submits the next batch as soon as the last one commits.
	rate float64
	// slowRate paces the last member's consumer (msgs/s); 0 = unpaced.
	slowRate float64
	// churn is the membership cycle period during traffic: the last
	// member leaves, and half a period later a fresh incarnation of it
	// joins. 0 runs probeCycles cycles after the traffic instead.
	churn       time.Duration
	probeCycles int
}

// Calibration of game-slow (see NOTES.md): the offered rate, the slow
// member's pace, and the pace below which the producer fell behind
// schedule when the benchmark was calibrated.
const (
	gameRate          = 20000
	gameSlowRate      = 12000
	gameBlockingPoint = 9500
	gameBuffer        = 64
)

func specs() []*spec {
	chainBuf := 1024
	return []*spec{
		{
			name:    "chain-sat",
			why:     "closed-loop peak data-plane capacity on memnet while chain purging keeps every queue O(1)",
			members: 4, producers: []int{0, 1},
			relation: fmt.Sprintf("k-enumeration chain, k=%d", 2*chainBuf),
			gc: func() core.GroupConfig {
				return core.GroupConfig{
					Relation:     obsolete.KEnumeration{K: 2 * chainBuf},
					ToDeliverCap: chainBuf, OutgoingCap: chainBuf, Window: chainBuf,
				}
			},
			batch: 64, probeCycles: 49,
		},
		{
			name: "game-slow",
			why:  "the paper's scenario on loopback TCP: a paced slow member, purging keeps the producer on schedule",
			tcp:  true, members: 4, producers: []int{0}, idle: 15,
			relation: fmt.Sprintf("game trace items, k-enumeration k=%d", 2*gameBuffer),
			gc: func() core.GroupConfig {
				return core.GroupConfig{
					Relation:     obsolete.KEnumeration{K: 2 * gameBuffer},
					ToDeliverCap: gameBuffer, OutgoingCap: gameBuffer, Window: gameBuffer,
					StabilityInterval: 20 * time.Millisecond,
				}
			},
			batch: 64, rate: gameRate, slowRate: gameSlowRate, probeCycles: 49,
		},
		{
			name: "vs-churn",
			why:  "classic VS on loopback TCP under a fixed leave/rejoin cycle: consensus, flush and join transfer, no purging",
			tcp:  true, members: 5, producers: []int{0},
			relation: "empty (classic VS)",
			gc:       func() core.GroupConfig { return core.GroupConfig{} },
			batch:    64, rate: 5000, churn: 500 * time.Millisecond,
		},
	}
}

func specByName(name string) (*spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func pidOf(i int) ident.PID { return ident.PID(fmt.Sprintf("p%d", i)) }

// stream is one producer's generated message stream. Message seq
// (1-based) is at(seq). Streams depend only on the workload and the
// seed; the system under test sees nothing else of the seed.
type stream struct {
	sender ident.PID
	// metas holds every message's metadata when the stream is finite
	// (game trace); nil means seq-numbered messages sharing annot.
	metas    []obsolete.Msg
	annot    []byte
	payloads [][]byte
}

func (s *stream) meta(seq ident.Seq) obsolete.Msg {
	if s.metas != nil {
		return s.metas[seq-1]
	}
	return obsolete.Msg{Sender: s.sender, Seq: seq, Annot: s.annot}
}

func (s *stream) payload(seq ident.Seq) []byte {
	return s.payloads[int(seq-1)%len(s.payloads)]
}

// limit is the number of messages available (0 = unbounded).
func (s *stream) limit() int { return len(s.metas) }

// chainAnnot is the steady-state k-enumeration annotation of a chain
// (every message obsoletes its predecessor): all-ones once k messages
// have been sent, so one slice serves every message.
func chainAnnot(k int) []byte {
	tr := obsolete.NewKTracker(k)
	seq, annot := tr.Next()
	for i := 0; i < k+1; i++ {
		seq, annot = tr.Next(seq)
	}
	return annot
}

func randomPayloads(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// makeStreams generates the producers' streams for a run of the given
// length. game-slow replays a calibrated game session (trace.Generate
// seeded with the workload seed), compressed to the offered rate.
func makeStreams(sp *spec, seed int64, seconds float64) []*stream {
	out := make([]*stream, len(sp.producers))
	for i, p := range sp.producers {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		st := &stream{sender: pidOf(p)}
		switch sp.name {
		case "chain-sat":
			st.annot = chainAnnot(sp.gc().Relation.(obsolete.KEnumeration).K)
			st.payloads = randomPayloads(rng, 256, 16)
		case "game-slow":
			need := int(sp.rate*seconds) + 1
			params := trace.DefaultParams()
			params.Seed = seed
			params.Rounds = 1024
			var msgs []trace.Msg
			for len(msgs) < need {
				params.Rounds *= 2
				msgs = trace.Generate(params).Annotate(st.sender, 2*gameBuffer)
			}
			msgs = msgs[:need]
			st.metas = make([]obsolete.Msg, need)
			st.payloads = make([][]byte, need)
			for j, m := range msgs {
				st.metas[j] = m.Meta
				pl := make([]byte, 16)
				binary.LittleEndian.PutUint32(pl, m.Event.Item)
				binary.LittleEndian.PutUint32(pl[4:], uint32(m.Event.Round))
				pl[8] = byte(m.Event.Kind)
				rng.Read(pl[9:])
				st.payloads[j] = pl
			}
		default:
			st.payloads = randomPayloads(rng, 256, 32)
		}
		out[i] = st
	}
	return out
}
