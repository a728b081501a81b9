package experiments

import (
	"reflect"
	"testing"

	"stfm/internal/sim"
)

// TestMetamorphicRelations pins configuration pairs that must simulate
// identically although they take different code paths: a knob set to
// its neutral value has to be indistinguishable from leaving it unset.
// Every Result field except the Policy label must match.
//   - FR-FCFS+Cap with a cap no column-access streak can reach never
//     lets its cap bite, so it is FR-FCFS.
//   - STFM with every thread weighted 1 is unweighted STFM: the weighted
//     slowdowns are the raw ones.
//   - NFQ with equal shares is NFQ without shares: each thread gets the
//     default 1/N of the bandwidth.
func TestMetamorphicRelations(t *testing.T) {
	t.Parallel()
	profiles, err := Profiles("mcf", "libquantum", "GemsFDTD", "astar")
	if err != nil {
		t.Fatal(err)
	}
	equal := []float64{1, 1, 1, 1}
	cases := []struct {
		name       string
		base       sim.PolicyKind
		policy     sim.PolicyKind
		neutralize func(*sim.Config)
	}{
		{"unbounded-cap", sim.PolicyFRFCFS, sim.PolicyFRFCFSCap, func(c *sim.Config) { c.CapValue = 1 << 30 }},
		{"uniform-stfm-weights", sim.PolicySTFM, sim.PolicySTFM, func(c *sim.Config) { c.STFM.Weights = equal }},
		{"equal-nfq-shares", sim.PolicyNFQ, sim.PolicyNFQ, func(c *sim.Config) { c.NFQWeights = equal }},
	}
	run := func(t *testing.T, pol sim.PolicyKind, mutate func(*sim.Config)) *sim.Result {
		cfg := sim.DefaultConfig(pol, len(profiles))
		cfg.InstrTarget = 20_000
		cfg.MinMisses = 40
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := sim.Run(cfg, profiles)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		res.Policy = ""
		return res
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := run(t, tc.base, nil)
			if got := run(t, tc.policy, tc.neutralize); !reflect.DeepEqual(got, want) {
				t.Errorf("%s with a neutral knob diverges from %s\ngot:  %+v\nwant: %+v", tc.policy, tc.base, got, want)
			}
		})
	}
}
