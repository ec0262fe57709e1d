package elastic

import (
	"reflect"
	"strings"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string // substring of the error, "" = valid
	}{
		{"empty", Schedule{}, ""},
		{"simple", Schedule{{PE: 1, At: 1, Warning: 0.25, Restore: 2, ReplacementCore: -1}}, ""},
		{"sequential same PE", Schedule{
			{PE: 0, At: 1, Restore: 2, ReplacementCore: -1},
			{PE: 0, At: 3, Restore: 4, ReplacementCore: -1},
		}, ""},
		{"pe out of range", Schedule{{PE: 4, At: 1}}, "outside"},
		{"negative warning", Schedule{{PE: 0, At: 1, Warning: -1}}, "negative warning"},
		{"notice before start", Schedule{{PE: 0, At: 0.1, Warning: 0.5}}, "before the run starts"},
		{"restore before revocation", Schedule{{PE: 0, At: 2, Restore: 1}}, "before its revocation"},
		{"bad replacement", Schedule{{PE: 0, At: 1, ReplacementCore: -2}}, "invalid replacement"},
		{"overlapping same PE", Schedule{
			{PE: 2, At: 1, Restore: 5, ReplacementCore: -1},
			{PE: 2, At: 2, Restore: 6, ReplacementCore: -1},
		}, "still revoked"},
		{"re-revoke after permanent loss", Schedule{
			{PE: 2, At: 1},
			{PE: 2, At: 3},
		}, "still revoked"},
	}
	for _, c := range cases {
		err := c.s.Validate(4)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// elasticChare ticks itself to completion, like a minimal iterative app.
type elasticChare struct{ iters, done int }

func (c *elasticChare) PackSize() int { return 2048 }

func (c *elasticChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	c.done++
	if c.done >= c.iters {
		ctx.Done()
		return 0.01
	}
	ctx.Send(ctx.Self(), struct{}{}, 16)
	return 0.01
}

func TestApplyDrivesRuntime(t *testing.T) {
	sh := sim.NewShards(1, 0)
	eng := sh.Engine(0)
	m := machine.New(sh, machine.Config{Nodes: 1, CoresPerNode: 6, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	r := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}})
	r.NewArray("w", 8, func(int) charm.Chare { return &elasticChare{iters: 40} })

	Schedule{
		{PE: 1, At: 0.3, Warning: 0.1, Restore: 0.7, ReplacementCore: 4},
		{PE: 3, At: 0.5, Warning: 0, Restore: 0.9, ReplacementCore: -1},
	}.Apply(r)

	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish under the schedule")
	}
	if got := r.Evacuations(); got != 4 {
		t.Fatalf("Evacuations=%d, want 4 (two per revoked PE)", got)
	}
	if r.Retired(1) || r.Retired(3) {
		t.Fatal("PEs still retired after their restores")
	}
	if got := r.CoreOf(1); got != 4 {
		t.Fatalf("PE 1 on core %d, want replacement core 4", got)
	}
	if !m.Core(3).Online() {
		t.Fatal("core 3 offline after same-core restore")
	}
	if m.Core(1).Online() {
		t.Fatal("core 1 back online despite replacement-core restore")
	}
}

func TestApplyPanicsOnInvalidSchedule(t *testing.T) {
	m := machine.New(sim.NewShards(1, 0), machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	r := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted a schedule targeting a PE the runtime lacks")
		}
	}()
	Schedule{{PE: 3, At: 1}}.Apply(r)
}

func TestPoissonDeterministicAndValid(t *testing.T) {
	cfg := PoissonConfig{
		Seed: 7, RatePerSecond: 2, Horizon: 10, PEs: 8,
		Warning: 0.25, MeanOutage: 1.5,
		ReplacementCores: []int{32, 33},
	}
	a, b := Poisson(cfg), Poisson(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("rate 2/s over 10 s produced no revocations")
	}
	if err := a.Validate(8); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	cfg.Seed = 8
	if reflect.DeepEqual(a, Poisson(cfg)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPoissonNeverKillsLastPE(t *testing.T) {
	// Permanent outages (MeanOutage 0) on a tiny allocation: the generator
	// must stop short of revoking every PE.
	s := Poisson(PoissonConfig{Seed: 3, RatePerSecond: 50, Horizon: 100, PEs: 3})
	if len(s) > 2 {
		t.Fatalf("%d permanent revocations on 3 PEs", len(s))
	}
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonHardKillWhenNoWarning(t *testing.T) {
	s := Poisson(PoissonConfig{Seed: 1, RatePerSecond: 1, Horizon: 20, PEs: 4, MeanOutage: 1})
	if len(s) == 0 {
		t.Fatal("no revocations generated")
	}
	for _, r := range s {
		if r.Warning != 0 {
			t.Fatalf("warning %v in a hard-kill schedule", r.Warning)
		}
		if r.Restore <= r.At {
			t.Fatalf("restore %v not after revocation %v", r.Restore, r.At)
		}
		if r.ReplacementCore != -1 {
			t.Fatalf("unexpected replacement core %d without a pool", r.ReplacementCore)
		}
	}
}
