package stats

import "math/rand"

// math/rand's generator (Mitchell and Reeds' additive lagged Fibonacci):
// a state of rngLen words, each draw the sum of the words at two cursors
// rngTap apart, stored back over one of them. Seeding fills the state
// from 1,841 sequential steps of the Lehmer generator x → lehmerA·x mod
// lehmerM — 20 discarded, then three per word — which is what makes a
// seeded source cost ~10 µs and 4.9 KB however few values are drawn.
const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// source is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) without seeding 607 words first. Draw j of a fresh
// state is word[334-j] + word[607-j], and for j ≤ rngTap neither word has
// been overwritten by an earlier draw, so each is computed straight from
// the seed: step n of the Lehmer generator is (lehmerA^n · seed) mod
// lehmerM, a table lookup and a multiplication. rngTap is the generator's
// lag, not a tunable: draw rngTap+1 is the first to read a word an earlier
// draw wrote, and from there the source seeds a real math/rand source,
// skips what was already drawn and delegates, so past that point the
// stream is the standard library's by construction.
type source struct {
	x0  uint64        // normalised seed, in [1, lehmerM)
	n   int           // draws served from the seed so far; past rngTap, std holds the stream
	std rand.Source64 // math/rand source, allocated at first need and kept
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the stream to rand.NewSource(seed)'s, normalising the seed
// exactly as math/rand does.
func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n = uint64(seed), 0
}

// Int63 and Uint64 each test for the delegated state themselves, so a
// stream std holds costs one branch and one call over math/rand's own.
func (s *source) Int63() int64 {
	if s.n > rngTap {
		return s.std.Int63()
	}
	return int64(s.fromSeed() & (1<<63 - 1))
}

func (s *source) Uint64() uint64 {
	if s.n > rngTap {
		return s.std.Uint64()
	}
	return s.fromSeed()
}

// fromSeed is the next draw of a stream std does not hold yet.
func (s *source) fromSeed() uint64 {
	if s.n == rngTap {
		s.materialise()
		return s.std.Uint64()
	}
	s.n++
	feed, tap := &seedWords[rngLen-rngTap-s.n], &seedWords[rngLen-s.n]
	return uint64(feed.word(s.x0) + tap.word(s.x0))
}

// materialise hands the stream to a math/rand source positioned after
// the rngTap draws already served.
func (s *source) materialise() {
	if s.std == nil {
		s.std = rand.NewSource(int64(s.x0)).(rand.Source64)
	} else {
		s.std.Seed(int64(s.x0))
	}
	for i := 0; i < rngTap; i++ {
		s.std.Uint64()
	}
	s.n = rngTap + 1
}

// seedWord is what seeding needs to produce one state word from a seed:
// lehmerA^n mod lehmerM for the word's three Lehmer steps, and math/rand's
// fixed additive constant for the word.
type seedWord struct {
	pow    [3]uint32
	cooked int64
}

func (w *seedWord) word(x0 uint64) int64 {
	return int64(lehmer(w.pow[0], x0))<<40 ^ int64(lehmer(w.pow[1], x0))<<20 ^
		int64(lehmer(w.pow[2], x0)) ^ w.cooked
}

// lehmer returns pow·x mod lehmerM; both factors are below 2^31, so the
// product cannot overflow.
func lehmer(pow uint32, x uint64) uint64 {
	return uint64(pow) * x % lehmerM
}

// seedWords is indexed like the generator's state. math/rand does not
// export its additive constants, so they are recovered from the generator
// itself: with o[1..607] the first outputs of a seeded source and v its
// state right after seeding, outputs past the lag are an untouched word
// plus the output rngTap draws earlier, and the first rngTap outputs are
// the sum of two untouched words. The constant is v with the seed-derived
// part XORed away. TestSourceMatchesMathRand checks the result against
// math/rand draw by draw.
var seedWords = func() (ws [rngLen]seedWord) {
	pow := uint64(1)
	step := func() uint32 {
		pow = pow * lehmerA % lehmerM
		return uint32(pow)
	}
	for n := 0; n < 20; n++ { // seeding discards its first 20 steps
		step()
	}
	for i := range ws {
		ws[i].pow = [3]uint32{step(), step(), step()}
	}

	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64
	for j := 1; j <= rngLen; j++ {
		o[j] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for j := rngTap + 1; j <= rngLen; j++ {
		v[(2*rngLen-rngTap-j)%rngLen] = o[j] - o[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		v[rngLen-rngTap-j] = o[j] - v[rngLen-j]
	}
	for i := range ws {
		ws[i].cooked = v[i] ^ ws[i].word(seed) // cooked is still 0 here
	}
	return ws
}()
