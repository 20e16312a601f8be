package stats

import "math/rand"

// math/rand's seeded source is an additive lagged Fibonacci generator
// (Mitchell and Reeds): a register of rngLen words, where each draw adds
// the word rngTap places behind the feed into the feed word and returns
// it. Seeding fills word i from three consecutive values of the Lehmer
// chain x ← 48271·x mod (2³¹−1), after discarding seedSkip values, XORed
// with a fixed "cooked" constant.
const (
	rngLen   = 607
	rngTap   = 273
	seedSkip = 20

	lehmerA = 48271
	lehmerM = 1<<31 - 1

	// mathRandZeroSeed is the chain start math/rand substitutes for a
	// seed ≡ 0 (mod 2³¹−1), whose Lehmer chain would stay at zero.
	mathRandZeroSeed = 89482311
)

var (
	// rngCooked is math/rand's seeding constant per register word. It is
	// recovered from math/rand itself at init rather than copied, so
	// math/rand stays the only definition of the stream.
	rngCooked [rngLen]uint64

	// wordJump[i] holds 48271ⁿ mod (2³¹−1) for the chain positions n of
	// register word i's three values, seedSkip+1+3i onward: multiplying
	// the chain start by one jumps straight to that value.
	wordJump [rngLen][3]uint64
)

func init() {
	// Draw rngLen values from a fresh math/rand source seeded with 1.
	// Draw k writes its output into register word rngLen-rngTap-k (mod
	// rngLen), so after rngLen draws each word has been written exactly
	// once and the register is the outputs themselves.
	src := rand.NewSource(1).(rand.Source64)
	w := &rngCooked
	for k := 1; k <= rngLen; k++ {
		w[feedAfter(k)] = src.Uint64()
	}
	// Undo the draws newest first (draw k added the tap word, rngTap
	// ahead of its feed word, which the draw left unchanged), leaving the
	// seeded register. XORing off seed 1's chain bits leaves the cooked
	// constants.
	for k := rngLen; k >= 1; k-- {
		f := feedAfter(k)
		w[f] -= w[(f+rngTap)%rngLen]
	}
	xorChain(w, 1)

	p := uint64(1)
	for i := 0; i <= seedSkip; i++ {
		p = lehmer(p)
	}
	for i := range wordJump {
		for j := range wordJump[i] {
			wordJump[i][j] = p
			p = lehmer(p)
		}
	}
}

// feedAfter is the register word that draw k (counting from 1 after a
// seed) writes.
func feedAfter(k int) int { return ((rngLen-rngTap-k)%rngLen + rngLen) % rngLen }

// lehmer advances the seeding chain one step.
func lehmer(x uint64) uint64 { return mulMod(x, lehmerA) }

// mulMod returns x·y mod 2³¹−1 for x, y < 2³¹, folding the product's
// high bits onto its low bits (2³¹ ≡ 1) instead of dividing.
func mulMod(x, y uint64) uint64 {
	p := x * y
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// chainBits packs three chain values into a register word before its
// cooked constant is applied.
func chainBits(a, b, c uint64) uint64 { return a<<40 ^ b<<20 ^ c }

// xorChain XORs into each register word the chain bits math/rand's
// seeding derives for it from chain start x, walking the chain in order.
func xorChain(vec *[rngLen]uint64, x uint64) {
	for i := 0; i < seedSkip; i++ {
		x = lehmer(x)
	}
	for i := range vec {
		a := lehmer(x)
		b := lehmer(a)
		x = lehmer(b)
		vec[i] ^= chainBits(a, b, x)
	}
}

// source is a rand.Source64 whose stream is bit for bit
// math/rand.NewSource(seed)'s, but which seeds lazily. math/rand walks
// the whole 1841-step seeding chain and fills a 607-word register up
// front. Here the first rngTap draws read only register words no draw has
// written yet, so each is computed from the seed on demand (three jumps
// along the chain through wordJump) and no register exists. The draw that
// would read a written word first builds the register with math/rand's
// sequential seeding loop and replays the draws already served, so a
// long stream costs what math/rand's does.
type source struct {
	reg  *register // nil while lazy
	seed uint64    // chain start, in [1, 2³¹−2]
	feed int       // while lazy, the register word the last draw wrote
}

// register is math/rand's generator state: the words and the two
// indices a draw moves down them.
type register struct {
	tap, feed int
	vec       [rngLen]uint64
}

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the source to math/rand's stream for seed.
func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = mathRandZeroSeed
	}
	*s = source{seed: uint64(seed), feed: rngLen - rngTap}
}

// Int63 returns a non-negative 63-bit integer from the stream.
//
// Int63 and Uint64 are nosplit: on a long stream a draw on the built
// register is all they do, and the stack-bound check their call into
// the lazy phase would otherwise cost every draw is a measurable share
// of it. Their frames are a few words; lazyUint64 checks the stack.
//
//go:nosplit
func (s *source) Int63() int64 {
	r := s.reg
	if r == nil {
		return int64(s.lazyUint64() &^ (1 << 63))
	}
	return int64(r.step() &^ (1 << 63))
}

// Uint64 returns the stream's next 64-bit value.
//
//go:nosplit
func (s *source) Uint64() uint64 {
	r := s.reg
	if r == nil {
		return s.lazyUint64()
	}
	return r.step()
}

// step is math/rand's draw.
func (r *register) step() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// lazyUint64 serves a draw before the register exists, building it on
// the first draw that reads a word an earlier draw wrote.
func (s *source) lazyUint64() uint64 {
	// While lazy the tap word sits rngTap ahead of the feed word. Neither
	// has been written until the tap reaches the first word the lazy
	// phase wrote, rngLen-rngTap-1.
	if s.feed > rngLen-2*rngTap {
		s.feed--
		return s.word(s.feed) + s.word(s.feed+rngTap)
	}
	s.materialize()
	return s.reg.step()
}

// word computes seeded register word i directly from the chain start:
// its three chain values are independent jumps along the chain.
func (s *source) word(i int) uint64 {
	jump := &wordJump[i]
	return chainBits(mulMod(s.seed, jump[0]), mulMod(s.seed, jump[1]), mulMod(s.seed, jump[2])) ^ rngCooked[i]
}

// materialize builds the register as math/rand's seeding does and
// replays the draws the lazy phase served, leaving it where math/rand's
// would be after rngTap draws.
func (s *source) materialize() {
	r := &register{tap: s.feed + rngTap, feed: s.feed, vec: rngCooked}
	xorChain(&r.vec, s.seed)
	for f := rngLen - rngTap - 1; f >= s.feed; f-- {
		r.vec[f] += r.vec[f+rngTap]
	}
	s.reg = r
}
