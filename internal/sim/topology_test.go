package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rat"
)

func broadcastSpawn(steps int) func(ProcessID) Process {
	return func(ProcessID) Process {
		return ProcessFunc(func(env *Env, msg Message) {
			if env.StepIndex() < steps {
				env.Broadcast(env.StepIndex())
			}
		})
	}
}

func TestRingStructure(t *testing.T) {
	l := Ring(5)
	if l.N() != 5 || l.NumLinks() != 5 || l.MaxOutDegree() != 1 {
		t.Fatalf("Ring(5): n=%d links=%d maxOut=%d", l.N(), l.NumLinks(), l.MaxOutDegree())
	}
	for p := ProcessID(0); p < 5; p++ {
		next := (p + 1) % 5
		if !l.Linked(p, next) {
			t.Errorf("missing link %d -> %d", p, next)
		}
		if l.Linked(next, p) {
			t.Errorf("unexpected reverse link %d -> %d", next, p)
		}
	}
}

func TestTorusStructure(t *testing.T) {
	l := Torus(3, 4)
	if l.N() != 12 {
		t.Fatalf("Torus(3,4): n=%d", l.N())
	}
	// Every interior-equivalent node of a wraparound grid has degree 4, and
	// links are bidirectional.
	for p := ProcessID(0); int(p) < l.N(); p++ {
		if d := len(l.Out(p)); d != 4 {
			t.Errorf("process %d has out-degree %d, want 4", p, d)
		}
		for _, q := range l.Out(p) {
			if !l.Linked(q, p) {
				t.Errorf("torus link %d -> %d not bidirectional", p, q)
			}
		}
	}
	// Degenerate dimensions collapse duplicates rather than double-count.
	if d := Torus(1, 4).MaxOutDegree(); d != 2 {
		t.Errorf("Torus(1,4) max out-degree %d, want 2", d)
	}
}

func TestRandomRegularStructure(t *testing.T) {
	l := RandomRegular(20, 3, 7)
	for p := ProcessID(0); p < 20; p++ {
		if d := len(l.Out(p)); d != 3 {
			t.Errorf("process %d has out-degree %d, want 3", p, d)
		}
		if l.Linked(p, p) {
			t.Errorf("process %d has a self-loop", p)
		}
	}
	// Same seed, same graph; different seed, (overwhelmingly) different.
	if a, b := RandomRegular(20, 3, 7), RandomRegular(20, 3, 7); !sameLinks(a, b) {
		t.Error("RandomRegular not deterministic for a fixed seed")
	}
	if a, b := RandomRegular(20, 3, 7), RandomRegular(20, 3, 8); sameLinks(a, b) {
		t.Error("RandomRegular ignores the seed")
	}
}

func TestScaleFreeStructure(t *testing.T) {
	l := ScaleFree(60, 2, 3)
	// Bidirectional; every node after the first attaches to >= 1 earlier
	// node, so the graph is connected and has at least n-1 undirected edges.
	if l.NumLinks() < 2*(60-1) {
		t.Errorf("ScaleFree(60,2): %d directed links, want >= %d", l.NumLinks(), 2*59)
	}
	for p := ProcessID(0); int(p) < l.N(); p++ {
		for _, q := range l.Out(p) {
			if !l.Linked(q, p) {
				t.Errorf("scale-free link %d -> %d not bidirectional", p, q)
			}
		}
	}
	if a, b := ScaleFree(60, 2, 3), ScaleFree(60, 2, 3); !sameLinks(a, b) {
		t.Error("ScaleFree not deterministic for a fixed seed")
	}
}

func TestIslandsStructure(t *testing.T) {
	l := Islands(7, 3) // sizes 3, 2, 2
	for p := ProcessID(0); p < 7; p++ {
		for q := ProcessID(0); q < 7; q++ {
			want := p != q && IslandOf(7, 3, p) == IslandOf(7, 3, q)
			if got := l.Linked(p, q); got != want {
				t.Errorf("Islands(7,3).Linked(%d,%d) = %v, want %v", p, q, got, want)
			}
		}
	}
}

func sameLinks(a, b *Links) bool {
	if a.N() != b.N() || a.NumLinks() != b.NumLinks() {
		return false
	}
	for p := ProcessID(0); int(p) < a.N(); p++ {
		ao, bo := a.Out(p), b.Out(p)
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return true
}

func TestNewLinksSortsAndDedups(t *testing.T) {
	l := NewLinks(4, [][]ProcessID{{3, 1, 3, 1, 2}})
	if got := fmt.Sprint(l.Out(0)); got != "[1 2 3]" {
		t.Errorf("Out(0) = %s, want [1 2 3]", got)
	}
	if l.MaxOutDegree() != 3 {
		t.Errorf("max out-degree %d, want 3", l.MaxOutDegree())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range neighbor did not panic")
		}
	}()
	NewLinks(2, [][]ProcessID{{2}})
}

func TestParseTopology(t *testing.T) {
	ok := []struct {
		spec  string
		n     int
		full  bool
		links int
	}{
		{"full", 9, true, 0},
		{"", 9, true, 0},
		{"ring", 9, false, 9},
		{"torus", 9, false, 9 * 4},
		{"torus/3x3", 9, false, 9 * 4},
		{"regular/2", 9, false, 9 * 2},
		{"scalefree/1", 9, false, 2 * 8},
		{"scalefree/8", 9, false, 2 * 36},
		{"islands/3", 9, false, 9 * 2},
	}
	for _, tc := range ok {
		topo, err := ParseTopology(tc.spec, tc.n, 1)
		if err != nil {
			t.Errorf("ParseTopology(%q, %d): %v", tc.spec, tc.n, err)
			continue
		}
		if tc.full {
			if topo != nil {
				t.Errorf("ParseTopology(%q) = %v, want nil (fully connected)", tc.spec, topo)
			}
			continue
		}
		if topo.NumLinks() != tc.links {
			t.Errorf("ParseTopology(%q, %d): %d links, want %d", tc.spec, tc.n, topo.NumLinks(), tc.links)
		}
	}
	bad := []struct {
		spec string
		n    int
	}{
		{"full/x", 4}, {"ring/3", 4}, {"torus/2x3", 4}, {"torus/ab", 4},
		{"regular/4", 4}, {"regular/x", 4}, {"scalefree/0", 4},
		{"islands/5", 4}, {"islands/0", 4}, {"mesh", 4}, {"ring", 0},
		// rows*cols overflows int to n; M beyond n-1 would presize 2*M*n.
		{"torus/3x6148914691236517208", 8}, {"scalefree/8", 8}, {"scalefree/1000000000000", 8},
	}
	for _, tc := range bad {
		if _, err := ParseTopology(tc.spec, tc.n, 1); err == nil {
			t.Errorf("ParseTopology(%q, %d) accepted", tc.spec, tc.n)
		}
	}
}

// TestBroadcastSelfDeliveryUnconditional pins the semantics decision for
// the self-delivery bug: a topology without the from == to link must not
// suppress the broadcast's self-copy (Algorithm 1 assumes unconditional
// self-delivery; a topology describes network links, and reaching oneself
// needs none).
func TestBroadcastSelfDeliveryUnconditional(t *testing.T) {
	t.Run("links", func(t *testing.T) {
		recv := make([]int, 3)
		_, err := Run(Config{
			N: 3,
			Spawn: func(p ProcessID) Process {
				return ProcessFunc(func(env *Env, msg Message) {
					switch msg.Payload.(type) {
					case Wakeup:
						env.Broadcast("hi")
					case string:
						recv[env.Self()]++
					}
				})
			},
			Topology: NewLinks(3, nil), // no links at all
			Delays:   ConstantDelay{D: rat.One},
		})
		if err != nil {
			t.Fatal(err)
		}
		for p, n := range recv {
			if n != 1 {
				t.Errorf("process %d received %d self-copies, want 1", p, n)
			}
		}
	})
}

// TestSendToSelfAlwaysAllowed: Env.Send(self) is legal under any topology,
// matching the unconditional self-delivery of Broadcast.
func TestSendToSelfAlwaysAllowed(t *testing.T) {
	got := 0
	_, err := Run(Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if _, ok := msg.Payload.(Wakeup); ok {
					env.Send(env.Self(), "note-to-self")
				} else if env.Self() == 0 {
					got++
				}
			})
		},
		Topology: NewLinks(2, nil),
		Delays:   ConstantDelay{D: rat.One},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("process 0 received %d self-sends, want 1", got)
	}
}

// TestIslandsTrafficStaysInPartition pins the disconnected-graph behavior:
// messages never cross a partition, each island quiesces independently.
func TestIslandsTrafficStaysInPartition(t *testing.T) {
	const n, k = 7, 3
	res, err := Run(Config{
		N:        n,
		Spawn:    broadcastSpawn(3),
		Topology: Islands(n, k),
		Delays:   UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("disconnected run did not quiesce")
	}
	for _, m := range res.Trace.Msgs {
		if m.IsWakeup() {
			continue
		}
		if m.From != m.To && IslandOf(n, k, m.From) != IslandOf(n, k, m.To) {
			t.Errorf("message %d -> %d crosses partitions", m.From, m.To)
		}
	}
}

func TestScriptedSendValidation(t *testing.T) {
	base := func() Config {
		return Config{
			N:        3,
			Spawn:    broadcastSpawn(1),
			Topology: Ring(3),
			Delays:   ConstantDelay{D: rat.One},
		}
	}
	for _, tc := range []struct {
		name    string
		to      ProcessID
		at      rat.Rat
		wantErr string
	}{
		{"out-of-range", 3, rat.One, "invalid process"},
		{"cross-link", 0, rat.One, "non-existent link"}, // ring has 1 -> 2 only
		{"negative-time", 2, rat.FromInt(-1), "negative time"},
		{"legal-link", 2, rat.One, ""},
		{"self", 1, rat.One, ""}, // self-sends always legal
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			cfg.Faults = map[ProcessID]Fault{1: {CrashAfter: NeverCrash, Script: []ScriptedSend{
				{At: tc.at, To: tc.to, Payload: "forged"},
			}}}
			_, err := Run(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("legal scripted send rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopologySizeMismatchRejected(t *testing.T) {
	cfg := Config{
		N:        4,
		Spawn:    broadcastSpawn(1),
		Topology: Ring(5),
		Delays:   ConstantDelay{D: rat.One},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("Links over 5 processes accepted for N=4")
	}
}

// TestQueueImplementationsAgree pins the calendar queue to the traces the
// retired binary-heap engine queue produced: both realize the exact
// (time, seq) delivery order, so the calendar must reproduce the heap's
// per-config trace hashes bit for bit. The golden values were recorded
// with the heap queue at N=40. Zero delays maximize time ties; growing
// delays spread keys across many calendar windows.
func TestQueueImplementationsAgree(t *testing.T) {
	delays := map[string]DelayPolicy{
		"uniform": UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		"zero":    ConstantDelay{D: rat.Zero},
		"growing": GrowingDelay{Base: rat.One, Rate: rat.New(1, 3), Spread: rat.FromInt(2)},
	}
	topos := map[string]*Links{
		"full":  nil,
		"ring":  Ring(40),
		"torus": Torus(5, 8),
	}
	golden := []struct {
		delay, topo string
		seed        int64
		hash        uint64
		events      int
	}{
		{"uniform", "full", 0, 0x93b49c6d0027dbdd, 6440},
		{"uniform", "full", 1, 0x0ffc8766930c7a33, 6440},
		{"uniform", "full", 2, 0x0214da58673ba403, 6440},
		{"uniform", "ring", 0, 0xd48d26b63e4bcbad, 360},
		{"uniform", "ring", 1, 0x0fb364250551aa33, 360},
		{"uniform", "ring", 2, 0x6fe56b13672f0ced, 360},
		{"uniform", "torus", 0, 0xfad7e69030708616, 840},
		{"uniform", "torus", 1, 0xacf1a43e39243613, 840},
		{"uniform", "torus", 2, 0xfa5bad331c315d08, 840},
		{"zero", "full", 0, 0x3620d5c705ca656b, 6440},
		{"zero", "full", 1, 0x3620d5c705ca656b, 6440},
		{"zero", "full", 2, 0x3620d5c705ca656b, 6440},
		{"zero", "ring", 0, 0xdfd3c78e77cd6403, 360},
		{"zero", "ring", 1, 0xdfd3c78e77cd6403, 360},
		{"zero", "ring", 2, 0xdfd3c78e77cd6403, 360},
		{"zero", "torus", 0, 0x63a92fffa6319af1, 840},
		{"zero", "torus", 1, 0x63a92fffa6319af1, 840},
		{"zero", "torus", 2, 0x63a92fffa6319af1, 840},
		{"growing", "full", 0, 0xd564f9dbe3d2171f, 6440},
		{"growing", "full", 1, 0x978cf508500d1493, 6440},
		{"growing", "full", 2, 0xe552f9bfcea2b871, 6440},
		{"growing", "ring", 0, 0xb6c28da843b12b65, 360},
		{"growing", "ring", 1, 0x07b78b5988a041df, 360},
		{"growing", "ring", 2, 0xcc61fd20b95daec5, 360},
		{"growing", "torus", 0, 0xc87b198776996f44, 840},
		{"growing", "torus", 1, 0x001290ad127b1e20, 840},
		{"growing", "torus", 2, 0xbfffe126f23837fe, 840},
	}
	for _, g := range golden {
		res, err := Run(Config{
			N: 40, Spawn: broadcastSpawn(4),
			Topology: topos[g.topo], Delays: delays[g.delay],
			Seed: g.seed, MaxEvents: 30000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if h := res.Trace.Hash(); h != g.hash || len(res.Trace.Events) != g.events {
			t.Errorf("delay=%s topo=%s seed=%d: hash %016x (%d events), heap golden %016x (%d events)",
				g.delay, g.topo, g.seed, h, len(res.Trace.Events), g.hash, g.events)
		}
	}
}

// TestEngineReuseQueueResize: a pooled Engine that ran a large system
// sizes its calendar wheel back down for the next, small one — a wheel
// that only grew would drain every later run through the large run's
// mostly empty buckets — and the small run's trace equals a fresh
// engine's (routing is monotone at any wheel width).
func TestEngineReuseQueueResize(t *testing.T) {
	small := Config{
		N: 10, Spawn: broadcastSpawn(3),
		Topology: Ring(10),
		Delays:   UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
		Seed:     9,
	}
	fresh, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	const bigN = 1 << 14
	big := small
	big.N, big.Topology, big.Spawn = bigN, Ring(bigN), broadcastSpawn(1)
	e := NewEngine()
	for i := 0; i < 2; i++ {
		if _, err := e.Run(big); err != nil {
			t.Fatal(err)
		}
		if got, want := len(e.queue.buckets), bucketsFor(bigN); got != want {
			t.Fatalf("after N=%d: %d buckets, want %d", bigN, got, want)
		}
		res, err := e.Run(small)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(e.queue.buckets), bucketsFor(small.N); got != want {
			t.Fatalf("after N=%d: %d buckets, want %d", small.N, got, want)
		}
		if h, want := res.Trace.Hash(), fresh.Trace.Hash(); h != want {
			t.Fatalf("round %d: reused-engine hash %016x, fresh %016x", i, h, want)
		}
	}
}
