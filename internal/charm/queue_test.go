package charm

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// shiftingOrder is the reference scheduler: the plain-slice queue the PE
// used before its head-indexed fifo. It repeatedly takes the first
// delivery that is a Resume or addresses an unsynced chare, shifting the
// rest of the queue down, and returns the delivery order and what is
// left held.
func shiftingOrder(q []appDelivery, synced map[int]bool) (order, held []appDelivery) {
	q = slices.Clone(q)
	synced = maps.Clone(synced)
	for {
		idx := -1
		for i, d := range q {
			if _, isResume := d.data.(Resume); isResume || !synced[d.to] {
				idx = i
				break
			}
		}
		if idx < 0 {
			return order, q
		}
		d := q[idx]
		q = append(q[:idx], q[idx+1:]...)
		if _, isResume := d.data.(Resume); isResume {
			delete(synced, d.to)
		}
		order = append(order, d)
	}
}

// logChare records every delivery it executes, in execution order.
type logChare struct {
	log *[]appDelivery
}

func (c *logChare) PackSize() int { return 64 }
func (c *logChare) Recv(ctx *Ctx, data interface{}) float64 {
	if _, isStart := data.(Start); !isStart {
		*c.log = append(*c.log, appDelivery{to: ctx.self, data: data})
	}
	return 1e-6
}

// queueCase builds a PE queue: the deliveries, in enqueue order, and the
// chares marked synced before the PE starts pumping.
type queueCase struct {
	name   string
	q      []appDelivery
	synced []int
}

// qid is the slot of chare i of array "q", the only array of the world.
func qid(i int) int { return i }

func queueCases() []queueCase {
	msg := func(to, n int) appDelivery { return appDelivery{to: qid(to), data: n} }
	resume := func(to int) appDelivery { return appDelivery{to: qid(to), data: Resume{}} }
	var long, bypass []appDelivery
	for i := 0; i < 300; i++ {
		long = append(long, msg(i%4, i))
		if i == 220 {
			long = append(long, resume(0))
		}
	}
	for i := 0; i < 40; i++ {
		bypass = append(bypass, msg(1, i), msg(2, 1000+i))
	}
	bypass = append(bypass, resume(1))
	return []queueCase{
		{name: "fifo", q: long[:100]},
		{name: "long queue, synced head chare", q: long, synced: []int{0}},
		{name: "resume bypasses held messages", q: bypass, synced: []int{1}},
		{name: "two synced, one resumed", q: long, synced: []int{0, 3}},
	}
}

// queueWorld places chares 0..3 of array "q" on PE 0 (of two) and drains
// their Start messages.
func queueWorld(t *testing.T, log *[]appDelivery) (*RTS, *pe) {
	t.Helper()
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Placement: PlaceBlock})
	r.NewArray("q", 8, func(int) Chare { return &logChare{log: log} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	p := r.pes[0]
	for i := 0; i < 4; i++ {
		if !p.hosts(qid(i)) {
			t.Fatalf("chare %d not on PE 0", i)
		}
	}
	return r, p
}

func load(p *pe, tc queueCase) map[int]bool {
	synced := map[int]bool{}
	for _, i := range tc.synced {
		p.markSynced(qid(i))
		synced[qid(i)] = true
	}
	for _, d := range tc.q {
		p.enqueueApp(d.to, d.data)
	}
	return synced
}

// TestPumpMatchesShiftingQueue drives the head-indexed queue through the
// real PE scheduler and requires exactly the reference delivery order,
// with the held deliveries left in the queue in their original order.
func TestPumpMatchesShiftingQueue(t *testing.T) {
	for _, tc := range queueCases() {
		t.Run(tc.name, func(t *testing.T) {
			var log []appDelivery
			_, p := queueWorld(t, &log)
			synced := load(p, tc)
			wantOrder, wantHeld := shiftingOrder(tc.q, synced)
			p.pump()
			if err := p.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(log, wantOrder) {
				t.Fatalf("delivery order differs from the shifting queue:\n got %v\nwant %v", log, wantOrder)
			}
			if !slices.Equal(p.appQ.live(), wantHeld) {
				t.Fatalf("held deliveries %v, want %v", p.appQ.live(), wantHeld)
			}
		})
	}
}

// TestEvacuationSeesLiveWindow revokes the PE part-way through its queue:
// the deliveries executed before the revocation follow the reference
// order, evacuation forwards exactly the live window (no consumed entry,
// none lost), and each chare still sees its own messages in order.
func TestEvacuationSeesLiveWindow(t *testing.T) {
	for _, tc := range queueCases() {
		t.Run(tc.name, func(t *testing.T) {
			var log []appDelivery
			r, p := queueWorld(t, &log)
			synced := load(p, tc)
			wantOrder, _ := shiftingOrder(tc.q, synced)
			cut := len(wantOrder) / 2
			p.pump()
			for len(log) < cut {
				if !p.eng.Step() {
					t.Fatal("engine drained before the cut")
				}
			}
			// The cut-th delivery is executing; everything not yet
			// delivered, in enqueue order, must be exactly the live
			// window that evacuation forwards.
			rest := restAfter(tc.q, wantOrder[:cut])
			if !slices.Equal(p.appQ.live(), rest) {
				t.Fatalf("live window before evacuation %v, want %v", p.appQ.live(), rest)
			}
			r.RevokePE(0, 1e-3)
			if p.appQ.len() != 0 {
				t.Fatalf("%d deliveries left on the revoked PE", p.appQ.len())
			}
			if err := p.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(log[:cut], wantOrder[:cut]) {
				t.Fatalf("pre-revocation order differs:\n got %v\nwant %v", log[:cut], wantOrder[:cut])
			}
			for i := 0; i < 4; i++ {
				if got, want := perChare(log, i), perChare(wantOrder, i); !slices.Equal(got, want) {
					t.Fatalf("chare %d saw %v, want %v", i, got, want)
				}
			}
		})
	}
}

// restAfter removes the delivered entries (in order, first match each)
// from q, leaving the queue the PE should still hold.
func restAfter(q, delivered []appDelivery) []appDelivery {
	rest := slices.Clone(q)
	for _, d := range delivered {
		i := slices.Index(rest, d)
		rest = slices.Delete(rest, i, i+1)
	}
	return rest
}

func perChare(log []appDelivery, i int) []string {
	var out []string
	for _, d := range log {
		if d.to == qid(i) {
			out = append(out, fmt.Sprint(d.data))
		}
	}
	return out
}

// TestFifoSteadyStateAllocFree: once the backing array has grown, a
// push/take cycle at any queue depth must not allocate.
func TestFifoSteadyStateAllocFree(t *testing.T) {
	d := appDelivery{to: qid(0), data: &tick{}}
	for _, depth := range []int{0, 1, 100} {
		var q fifo[appDelivery]
		for i := 0; i < depth; i++ {
			q.push(d)
		}
		for i := 0; i < 1000; i++ {
			q.push(d)
			q.take(0)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			q.push(d)
			q.take(0)
		}); avg != 0 {
			t.Errorf("depth %d: %.2f allocs per push/take, want 0", depth, avg)
		}
	}
}

// TestFifoReleasesTakenEntries: a taken entry's slot is zeroed, so the
// queue does not keep consumed payloads (or system closures) reachable.
func TestFifoReleasesTakenEntries(t *testing.T) {
	var q fifo[func()]
	for i := 0; i < 8; i++ {
		q.push(func() {})
	}
	q.take(0)
	q.take(2)
	for i := 0; i < q.head; i++ {
		if q.buf[i] != nil {
			t.Fatalf("consumed slot %d still holds its closure", i)
		}
	}
	if q.len() != 6 {
		t.Fatalf("len %d after two takes of eight, want 6", q.len())
	}
	for q.len() > 0 {
		q.take(0)
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not rewound: head %d len %d", q.head, len(q.buf))
	}
}
