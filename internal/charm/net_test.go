package charm

import (
	"testing"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// streamSender fires a burst of numbered messages at its partner and
// finishes; streamReceiver records the arrival order.
type streamSender struct {
	to ChareID
	n  int
}

func (s *streamSender) PackSize() int { return 64 }
func (s *streamSender) Recv(ctx *Ctx, data interface{}) float64 {
	if _, ok := data.(Start); ok {
		for i := 0; i < s.n; i++ {
			ctx.Send(s.to, i, 256)
		}
		ctx.Done()
	}
	return 0
}

type streamReceiver struct {
	want int
	got  []int
}

func (r *streamReceiver) PackSize() int { return 64 }
func (r *streamReceiver) Recv(ctx *Ctx, data interface{}) float64 {
	switch v := data.(type) {
	case Start:
	case int:
		r.got = append(r.got, v)
		if len(r.got) == r.want {
			ctx.Done()
		}
	}
	return 0
}

// TestInOrderDeliveryAcrossRetransmits pins the runtime's message-order
// guarantee on an unreliable network: a cross-node burst under heavy
// seeded loss arrives complete and in send order — a retransmitted
// message is never overtaken by a later clean one, and the final attempt
// always delivers, so the AtSync/reduction protocols above never see a
// gap.
func TestInOrderDeliveryAcrossRetransmits(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 2, CoresPerNode: 1, CoreSpeed: 1})
	cfg := xnet.DefaultConfig()
	cfg.DropPct = 40
	cfg.Seed = 17
	net := xnet.New(m, cfg)

	const msgs = 100
	recv := &streamReceiver{want: msgs}
	r := NewRTS(Config{Machine: m, Net: net, Cores: allCores(m), Placement: PlaceBlock})
	r.NewArray("stream", 2, func(i int) Chare {
		if i == 0 {
			return &streamSender{to: ChareID{Array: "stream", Index: 1}, n: msgs}
		}
		return recv
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	if len(recv.got) != msgs {
		t.Fatalf("received %d/%d messages", len(recv.got), msgs)
	}
	for i, v := range recv.got {
		if v != i {
			t.Fatalf("out-of-order delivery at position %d: got message %d", i, v)
		}
	}
	if net.Drops() == 0 {
		t.Fatal("DropPct 40 lost nothing; the burst never exercised retransmission")
	}
}
