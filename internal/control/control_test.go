package control

import (
	"math"
	"strings"
	"testing"

	"accelflow/internal/sim"
)

// TestLoopTable pins the decision state machine's cooldown, bound and
// window edges without a kernel: each row feeds a fixed utilization
// sequence, one sample per TickInterval, and asserts the exact action
// sequence.
func TestLoopTable(t *testing.T) {
	cases := []struct {
		name  string
		spec  AutoscaleSpec
		utils []float64
		want  []int
	}{
		{
			// The window averages a signal that flips every tick to a
			// mean between the thresholds, so it never acts.
			name:  "flap suppression",
			spec:  AutoscaleSpec{UpUtil: 0.8, DownUtil: 0.2, MaxAdd: 8, MaxRemove: 8},
			utils: []float64{0.5, 1, 0, 1, 0, 1, 0, 1},
			want:  []int{0, 0, 0, 0, 0, 0, 0, 0},
		},
		{
			// A steady signal acts on its first tick, then every
			// cooldownTicks+1 ticks.
			name:  "steady signal scales through cooldown",
			spec:  AutoscaleSpec{UpUtil: 0.8, DownUtil: 0.1, MaxAdd: 8},
			utils: []float64{1, 1, 1, 1, 1, 1, 1, 1},
			want:  []int{1, 0, 0, 1, 0, 0, 1, 0},
		},
		{
			// MaxAdd pins the level once reached.
			name:  "ceiling pins the level",
			spec:  AutoscaleSpec{UpUtil: 0.8, DownUtil: 0.1, MaxAdd: 2},
			utils: []float64{1, 1, 1, 1, 1, 1, 1, 1},
			want:  []int{1, 0, 0, 1, 0, 0, 0, 0},
		},
		{
			// Scale-down mirrors scale-up, bounded by MaxRemove.
			name:  "idle drains to the removal bound",
			spec:  AutoscaleSpec{UpUtil: 0.8, DownUtil: 0.2, MaxRemove: 2},
			utils: []float64{0, 0, 0, 0, 0, 0, 0, 0},
			want:  []int{-1, 0, 0, -1, 0, 0, 0, 0},
		},
		{
			// UpUtil above 1 and DownUtil below 0 are the "never scale"
			// spelling: saturated or idle utilization produces no action.
			name:  "unreachable thresholds never act",
			spec:  AutoscaleSpec{UpUtil: 2, DownUtil: -1, MaxAdd: 8, MaxRemove: 8},
			utils: []float64{1, 1, 1, 0, 0, 0},
			want:  []int{0, 0, 0, 0, 0, 0},
		},
		{
			// A one-tick spike is averaged away by the samples before it.
			name:  "long window averages a spike away",
			spec:  AutoscaleSpec{UpUtil: 0.9, DownUtil: -1, MaxAdd: 2},
			utils: []float64{0, 0, 0, 1},
			want:  []int{0, 0, 0, 0},
		},
		{
			// The window spans four intervals, both ends included, so a
			// saturated signal must fill five samples before the mean
			// reaches UpUtil 0.9.
			name:  "window averages five samples",
			spec:  AutoscaleSpec{UpUtil: 0.9, DownUtil: -1, MaxAdd: 2},
			utils: []float64{0, 0, 0, 1, 1, 1, 1, 1},
			want:  []int{0, 0, 0, 0, 0, 0, 0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Target = TargetPE
			l := loop{spec: tc.spec}
			got := make([]int, 0, len(tc.utils))
			for i, u := range tc.utils {
				got = append(got, l.tick(sim.Millisecond+sim.Time(i)*TickInterval, u))
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d deltas, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("deltas = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestLoopSLOBreachScalesDespiteLowUtil: a windowed P99 above the SLO
// is a scale-up signal even at idle utilization, and breach
// bookkeeping records the tick.
func TestLoopSLOBreachScalesDespiteLowUtil(t *testing.T) {
	iv := TickInterval
	l := loop{spec: AutoscaleSpec{Target: TargetPE,
		UpUtil: 0.9, DownUtil: -1, SLOUs: 300, MaxAdd: 4}}
	now := sim.Millisecond
	l.observeLatency(now-iv/2, 500) // inside the window, above the SLO
	if d := l.tick(now, 0.05); d != 1 {
		t.Fatalf("breach tick applied delta %d, want 1", d)
	}
	if l.breachTicks != 1 || l.lastBreach != now {
		t.Fatalf("breach bookkeeping = %d/%v, want 1/%v", l.breachTicks, l.lastBreach, now)
	}
	// Once the sample ages out of the window the breach clears and idle
	// utilization takes over (cooldown swallows the first eligible tick).
	if d := l.tick(now+5*iv, 0.05); d != 0 {
		t.Fatalf("post-breach cooldown tick applied delta %d, want 0", d)
	}
	if l.breachTicks != 1 {
		t.Fatalf("expired sample still counted as a breach (%d ticks)", l.breachTicks)
	}
}

// TestWindowP99NearestRank: the controller's windowed P99 takes the
// value at rank ceil(0.99n), the rank every reported P99 uses. Sample
// i of the window is i, so the P99 is its rank.
func TestWindowP99NearestRank(t *testing.T) {
	for _, tc := range []struct{ n, rank int }{
		{1, 1}, {50, 50}, {60, 60}, {100, 99}, {101, 100}, {400, 396},
	} {
		l := loop{}
		for i := tc.n; i >= 1; i-- { // newest first: windowP99 sorts
			l.observeLatency(sim.Millisecond, float64(i))
		}
		if got := l.windowP99(); got != float64(tc.rank) {
			t.Errorf("n = %d: P99 is rank %v, want %d", tc.n, got, tc.rank)
		}
	}
}

// TestControllerPoolFloor: scaling down never takes a pool below one
// server, regardless of how deep the loop's offset goes.
func TestControllerPoolFloor(t *testing.T) {
	k := sim.NewKernel()
	res := sim.NewResource(k, "pe", 2, sim.FIFO)
	c := New(Spec{Autoscale: &AutoscaleSpec{Target: TargetPE,
		UpUtil: 0.9, DownUtil: 0.2, MaxRemove: 8}}, 1)
	c.AttachPools([]Pool{{Res: res, Base: res.Servers}})
	for i := 1; i <= 12; i++ {
		k.At(sim.Time(i)*TickInterval, func() {})
		k.Run()
		c.Tick(k.Now())
	}
	if res.Servers != 1 {
		t.Fatalf("pool scaled to %d servers, want floor of 1", res.Servers)
	}
	if c.Stats.ScaleDowns == 0 {
		t.Fatal("no scale-downs recorded")
	}
	if got := -c.loop.off; got > 8 {
		t.Fatalf("offset %d exceeds MaxRemove", got)
	}
}

// TestControllerZeroRNGContract: a shed section with Prob 0 and a
// retry section with Budget 0 must not allocate their state — the
// disabled controller's bit-identity to no controller depends on
// drawing nothing from any stream.
func TestControllerZeroRNGContract(t *testing.T) {
	c := New(Spec{Shed: &ShedSpec{Queue: 10}, Retry: &RetrySpec{}}, 1)
	if c.shedRNG != nil {
		t.Error("Prob 0 created the shed RNG stream")
	}
	if c.Shed() {
		t.Error("empty controller shed a request")
	}
	if _, ok := c.RetryAfter(false); ok {
		t.Error("Budget 0 granted a retry")
	}
}

// TestControllerShedDeterminism: the same seed sheds the same
// arrivals; queue-depth shedding draws nothing from the stream.
func TestControllerShedDeterminism(t *testing.T) {
	pattern := func() []bool {
		c := New(Spec{Shed: &ShedSpec{Prob: 0.3}}, 42)
		out := make([]bool, 200)
		for i := range out {
			out[i] = c.Shed()
		}
		return out
	}
	a, b := pattern(), pattern()
	shed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shed decision %d differs across identical controllers", i)
		}
		if a[i] {
			shed++
		}
	}
	if shed == 0 || shed == len(a) {
		t.Fatalf("shed %d of %d arrivals; probabilistic shedding looks broken", shed, len(a))
	}

	// Queue-triggered sheds must leave the random stream untouched: a
	// controller that sheds 50 arrivals by depth first continues the
	// random sequence exactly where a fresh one starts it.
	c := New(Spec{Shed: &ShedSpec{Prob: 0.3, Queue: 5}}, 42)
	for i := 0; i < 5; i++ {
		c.NoteSubmit()
	}
	for i := 0; i < 50; i++ {
		if !c.Shed() {
			t.Fatal("queue at threshold did not shed")
		}
	}
	for i := 0; i < 5; i++ {
		c.NoteDone(0, 0)
	}
	for i := 0; i < 200; i++ {
		if got := c.Shed(); got != a[i] {
			t.Fatalf("random stream advanced by queue sheds (decision %d)", i)
		}
	}
	if c.Stats.ShedQueue != 50 {
		t.Fatalf("ShedQueue = %d, want 50", c.Stats.ShedQueue)
	}
}

// TestRetryBudget pins the retry grant rules: one budget for the run,
// one retry per request, and the fixed backoff.
func TestRetryBudget(t *testing.T) {
	c := New(Spec{Retry: &RetrySpec{Budget: 2}}, 1)

	// A retried request that times out again gets no second retry,
	// and the refusal spends no budget.
	if _, ok := c.RetryAfter(true); ok {
		t.Fatal("second attempt granted a retry")
	}
	for i := 0; i < 2; i++ {
		if d, ok := c.RetryAfter(false); !ok || d != retryBackoff {
			t.Fatalf("retry %d = %v/%t, want a %v grant", i, d, ok, retryBackoff)
		}
	}
	// The budget of 2 is spent.
	if _, ok := c.RetryAfter(false); ok {
		t.Fatal("exhausted budget granted a retry")
	}
	if c.Stats.Retries != 2 || c.Stats.RetriesExhausted != 2 {
		t.Fatalf("stats = %d granted / %d exhausted, want 2/2", c.Stats.Retries, c.Stats.RetriesExhausted)
	}
}

// TestValidateTable exercises every rejection branch plus the
// disable-spelling specs that must pass.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string // error substring; "" = valid
	}{
		{"nil spec", nil, ""},
		{"empty spec", &Spec{}, ""},
		{"valid autoscale", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.8, DownUtil: 0.2}}, ""},
		{"disable spelling", &Spec{Autoscale: &AutoscaleSpec{Target: TargetCores, UpUtil: 2, DownUtil: -1}}, ""},
		{"bad target", &Spec{Autoscale: &AutoscaleSpec{Target: "gpus", UpUtil: 0.8}}, "target"},
		{"zero uputil", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE}}, "UpUtil"},
		{"inverted thresholds", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.3, DownUtil: 0.5}}, "DownUtil"},
		{"negative slo", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.8, SLOUs: -5}}, "SLOUs"},
		{"negative bounds", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.8, MaxAdd: -1}}, "non-negative"},
		{"negative removal bound", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.8, MaxRemove: -1}}, "maxRemove"},
		{"NaN uputil", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: math.NaN()}}, "UpUtil"},
		{"NaN downutil", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.8, DownUtil: math.NaN()}}, "DownUtil"},
		{"infinite uputil", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: math.Inf(1)}}, "finite"},
		{"NaN slo", &Spec{Autoscale: &AutoscaleSpec{Target: TargetPE, UpUtil: 0.8, SLOUs: math.NaN()}}, "SLOUs"},
		{"shed prob above one", &Spec{Shed: &ShedSpec{Prob: 1.5}}, "probability"},
		{"NaN shed prob", &Spec{Shed: &ShedSpec{Prob: math.NaN()}}, "probability"},
		{"negative shed queue", &Spec{Shed: &ShedSpec{Queue: -1}}, "queue depth"},
		{"negative retry budget", &Spec{Retry: &RetrySpec{Budget: -1}}, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want substring %q", err, tc.want)
			}
		})
	}
}
