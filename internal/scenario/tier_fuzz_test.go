package scenario

import (
	"bytes"
	"testing"
)

// FuzzTierSplitIdentity: the tier split never shows in the output. For a
// builtin world at any seed, up to 130 sites and 6 months, a run with
// any number of pinned (hot) sites on one to four workers encodes to the
// same JSON as the all-cold run on one worker — the comparison CI's
// scenario gates make with cmp. A spec Validate refuses is skipped.
//
// The seeds cover each builtin over 6 months at 1, 5, 63, 65 and 130
// sites (inside and either side of one 64-site chunk) with one, half
// and all of the sites pinned, on one and three workers in turn. The
// rogue-crawler world's rogue arrives in month 12, so Validate refuses
// it at 6 months and its seeds skip.
func FuzzTierSplitIdentity(f *testing.F) {
	sites := []uint8{1, 5, 63, 65, 130}
	k := 0
	for b := range Builtins() {
		for _, n := range sites {
			for _, hot := range []uint8{1, n / 2, n} {
				f.Add(uint8(b), int64(0), n, uint8(6), hot, []uint8{1, 3}[k%2])
				k++
			}
		}
	}
	f.Fuzz(func(t *testing.T, builtin uint8, seed int64, sites, months, hot, workers uint8) {
		builtins := Builtins()
		spec := builtins[int(builtin)%len(builtins)]
		spec.Seed = seed
		// Each draw maps onto its range so that 1..130 sites, 1..6
		// months and 1..4 workers are taken as they are.
		spec.Sites = 1 + (int(sites)+129)%130
		spec.Months = 1 + (int(months)+5)%6
		if err := spec.Validate(); err != nil {
			t.Skip(err)
		}
		opts := TierOptions{HotSites: int(hot) % (spec.Sites + 1), Workers: 1 + (int(workers)+3)%4}
		want := runJSON(t, spec, TierOptions{Workers: 1})
		if got := runJSON(t, spec, opts); !bytes.Equal(got, want) {
			t.Fatalf("%s, %d sites, %d months, seed %d: %d hot on %d workers\n%s\nall cold on one worker\n%s",
				spec.Name, spec.Sites, spec.Months, spec.Seed, opts.HotSites, opts.Workers, got, want)
		}
	})
}
