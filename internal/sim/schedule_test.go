package sim

import "testing"

func TestCostModelValidate(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*CostModel)
	}{
		{"zero value", func(c *CostModel) { *c = CostModel{} }},
		{"negative latency", func(c *CostModel) { c.NetworkLatency = -1 }},
		{"negative per-byte", func(c *CostModel) { c.LocalCopyPerByte = -5 }},
		{"free network", func(c *CostModel) { c.NetworkLatency, c.NetworkPerByte = 0, 0 }},
		{"zero instruction scale", func(c *CostModel) { c.InstructionScale = 0 }},
	}
	for _, tc := range bad {
		c := DefaultCostModel()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
		}
	}
	// Zero InstructionCycles legitimately disables the scale check.
	c := DefaultCostModel()
	c.InstructionCycles, c.InstructionScale = 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("instruction-free model rejected: %v", err)
	}
}

// TestPriceEventMatchesFormulas pins PriceEvent to the existing cost
// formulas: replay exactness depends on one canonical pricing.
func TestPriceEventMatchesFormulas(t *testing.T) {
	c := DefaultCostModel()
	cases := []struct {
		kind EventKind
		arg  int64
		want int64
	}{
		{EvNetworkPut, 64, c.NetworkTransferCost(64)},
		{EvLocalCopy, 64, c.LocalTransferCost(64)},
		{EvQuiet, 3, c.QuietLatency},
		{EvInstr, 1000, c.InstructionCost(1000)},
		{EvIngest, 5, 5 * c.ItemIngestCycles},
		{EvDelay, 777, 777},
		{EvRaw, 123, 123},
		{EvBarrier, 0, 0},
		{EvHandlerStart, 42, 0},
	}
	for _, tc := range cases {
		if got := c.PriceEvent(tc.kind, tc.arg); got != tc.want {
			t.Errorf("PriceEvent(%v, %d) = %d, want %d", tc.kind, tc.arg, got, tc.want)
		}
	}
}

func TestEventKindCharged(t *testing.T) {
	charged := map[EventKind]bool{
		EvNetworkPut: true, EvLocalCopy: true, EvQuiet: true, EvInstr: true,
		EvIngest: true, EvDelay: true, EvRaw: true,
		EvBarrier: false, EvFinishStart: false, EvFinishEnd: false,
		EvMainPause: false, EvMainResume: false, EvHandlerStart: false, EvHandlerEnd: false,
	}
	if len(charged) != int(NumEventKinds) {
		t.Fatalf("test covers %d kinds, NumEventKinds is %d", len(charged), NumEventKinds)
	}
	for k, want := range charged {
		if got := k.Charged(); got != want {
			t.Errorf("%v.Charged() = %v, want %v", k, got, want)
		}
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	mk := func() *Schedule {
		rec := NewScheduleRecorder(Machine{NumPEs: 2, PEsPerNode: 2}, Virtual, DefaultCostModel())
		rec.PE(0).Append(EvBarrier, 0)
		rec.PE(1).Append(EvBarrier, 0)
		return rec.Schedule()
	}
	cases := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"missing PE log", func(s *Schedule) { s.PEs = s.PEs[:1] }},
		{"nil PE log", func(s *Schedule) { s.PEs[1] = nil }},
		{"negative skew", func(s *Schedule) { s.PEs[0].Skew = -1 }},
		{"unknown kind", func(s *Schedule) { s.PEs[0].Events[0].Kind = NumEventKinds }},
		{"mismatched barriers", func(s *Schedule) { s.PEs[0].Events = nil }},
		{"bad cost", func(s *Schedule) { s.Cost = CostModel{} }},
		{"bad machine", func(s *Schedule) { s.Machine.NumPEs = 0 }},
	}
	for _, tc := range cases {
		s := mk()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the schedule", tc.name)
		}
	}
}

func TestActorIDParts(t *testing.T) {
	for _, tc := range []struct{ ord, mb int }{{0, 0}, {1, 2}, {300, 255}, {7, 9}} {
		id := ActorID(tc.ord, tc.mb)
		ord, mb := ActorIDParts(id)
		if ord != tc.ord || mb != tc.mb {
			t.Errorf("ActorIDParts(ActorID(%d, %d)) = (%d, %d)", tc.ord, tc.mb, ord, mb)
		}
	}
}
