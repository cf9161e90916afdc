package detector

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// omegaJobConfig resolves the registered omega source with name=value
// overrides and returns the configuration of its job for seed.
func omegaJobConfig(t *testing.T, seed int64, overrides ...string) sim.Config {
	t.Helper()
	src, ok := workload.Lookup("omega")
	if !ok {
		t.Fatal("omega source not registered")
	}
	m := make(map[string]string, len(overrides))
	for _, kv := range overrides {
		k, val, _ := strings.Cut(kv, "=")
		m[k] = val
	}
	v, err := src.Resolve(m)
	if err != nil {
		t.Fatal(err)
	}
	job, err := omegaJob(v, seed)
	if err != nil {
		t.Fatal(err)
	}
	return *job.Cfg
}

// TestOmegaGoldenHashes pins Ω's traces on sparse fabrics. The hashes
// were recorded when the core overlay was still a link predicate scanned
// in O(N) per broadcast; the CSR overlay must reproduce them bit for bit.
func TestOmegaGoldenHashes(t *testing.T) {
	golden := []struct {
		topo, faults string
		seed         int64
		hash         uint64
		events       int
	}{
		{"ring", "none", 1, 0x484f2359f24788ab, 452},
		{"ring", "none", 2, 0x5e8d1833bc967cb0, 454},
		{"ring", "crash/1@0", 1, 0x4936e289fe948fc8, 444},
		{"ring", "crash/1@0", 2, 0xb89427f93eb7e385, 436},
		{"torus", "none", 1, 0xd43dc97d06d1df8a, 730},
		{"torus", "none", 2, 0x2ac92ee8823ee36c, 724},
		{"torus", "crash/1@0", 1, 0x3bec33bcc62bc9e7, 694},
		{"torus", "crash/1@0", 2, 0xf413eaa85acec383, 699},
		{"regular/3", "none", 1, 0x4426162e21042ca1, 616},
		{"regular/3", "none", 2, 0xf653cfbf600703fd, 616},
		{"regular/3", "crash/1@0", 1, 0x19a01901ff76a834, 592},
		{"regular/3", "crash/1@0", 2, 0xad3f7746d6146f33, 592},
		{"scalefree/2", "none", 1, 0xd3a0027d25e72997, 676},
		{"scalefree/2", "none", 2, 0x970e9ec22ca518d, 676},
		{"scalefree/2", "crash/1@0", 1, 0x1e5da87d881c9a8f, 658},
		{"scalefree/2", "crash/1@0", 2, 0x708918974e3d7bb6, 658},
	}
	for _, g := range golden {
		res, err := sim.Run(omegaJobConfig(t, g.seed, "n=16", "topology="+g.topo, "faults="+g.faults))
		if err != nil {
			t.Fatalf("%s/%s/seed=%d: %v", g.topo, g.faults, g.seed, err)
		}
		if h, n := res.Trace.Hash(), len(res.Trace.Events); h != g.hash || n != g.events {
			t.Errorf("%s/%s/seed=%d: hash %#x with %d events, want %#x with %d",
				g.topo, g.faults, g.seed, h, n, g.hash, g.events)
		}
	}
}

// TestPartitionCutsNoLinkAtAnyN pins partition validation against the
// overlay at every system size: two islands split exactly along the
// halves partition share no link, so the partition must be rejected at
// n=2000 (above the old predicate path's N = 1024 cutoff) as at n=1000.
func TestPartitionCutsNoLinkAtAnyN(t *testing.T) {
	for _, n := range []string{"1000", "2000"} {
		_, err := sim.Run(omegaJobConfig(t, 1, "n="+n, "topology=islands/2",
			"faults=partition/halves@2..5", "maxevents=20000"))
		if err == nil || !strings.Contains(err.Error(), "partition 0 cuts no link of the topology") {
			t.Errorf("n=%s: err = %v, want the partition rejected for cutting no link", n, err)
		}
	}
}
