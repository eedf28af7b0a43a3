// Deterministic random number generation for reproducible simulations.
//
// Every node in a simulation owns an independent RandomSource derived from
// (master seed, node index) via SplitMix64, so a run is a pure function of
// the engine configuration. Two core generators are available:
//
//   - xoshiro256++ (Blackman & Vigna), implemented from scratch — no
//     std::mt19937 so that results are bit-identical across standard
//     libraries. Sequential state: draw i+1 depends on draw i.
//   - Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as
//     1, 2, 3", SC'11): a counter-based generator. Draw i of a stream is a
//     pure function of (key, stream, i), so any lane of a batched
//     simulation is independently reproducible.
//
// RandomSource::ForStream selects the generator via RngKind; the default
// stays xoshiro so existing seeds keep their historical bit streams.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "support/assert.h"

namespace crmc::support {

// SplitMix64: used for seeding and for cheap stateless mixing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256++ 1.0.
class Xoshiro256pp {
 public:
  // Unseeded (all-zero state): a placeholder that is never drawn from.
  constexpr Xoshiro256pp() = default;

  explicit Xoshiro256pp(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

// Which core generator a RandomSource stream runs on.
enum class RngKind : std::uint8_t {
  kXoshiro = 0,  // sequential xoshiro256++ (historical bit streams)
  kPhilox = 1,   // counter-based Philox4x32-10 (random-access draws)
};

inline const char* ToString(RngKind kind) {
  return kind == RngKind::kPhilox ? "philox" : "xoshiro";
}

inline std::optional<RngKind> ParseRngKind(std::string_view name) {
  if (name == "xoshiro") return RngKind::kXoshiro;
  if (name == "philox") return RngKind::kPhilox;
  return std::nullopt;
}

// Philox4x32-10 block function (Salmon et al., SC'11). One block maps a
// 128-bit counter and a 64-bit key through 10 multiply/xor rounds to four
// statistically independent 32-bit words (Crush-resistant per the paper).
// Everything here is constexpr-friendly pure math; tests/rng_test.cpp pins
// the Random123 known-answer vectors.
struct Philox4x32 {
  static constexpr std::uint32_t kMult0 = 0xD2511F53u;
  static constexpr std::uint32_t kMult1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1
  static constexpr int kRounds = 10;

  static constexpr void Block(std::uint32_t c0, std::uint32_t c1,
                              std::uint32_t c2, std::uint32_t c3,
                              std::uint32_t k0, std::uint32_t k1,
                              std::uint32_t out[4]) {
    std::uint32_t x0 = c0;
    std::uint32_t x1 = c1;
    std::uint32_t x2 = c2;
    std::uint32_t x3 = c3;
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t p0 = static_cast<std::uint64_t>(kMult0) * x0;
      const std::uint64_t p1 = static_cast<std::uint64_t>(kMult1) * x2;
      const std::uint32_t y0 = static_cast<std::uint32_t>(p1 >> 32) ^ x1 ^ k0;
      const std::uint32_t y1 = static_cast<std::uint32_t>(p1);
      const std::uint32_t y2 = static_cast<std::uint32_t>(p0 >> 32) ^ x3 ^ k1;
      const std::uint32_t y3 = static_cast<std::uint32_t>(p0);
      x0 = y0;
      x1 = y1;
      x2 = y2;
      x3 = y3;
      k0 += kWeyl0;
      k1 += kWeyl1;
    }
    out[0] = x0;
    out[1] = x1;
    out[2] = x2;
    out[3] = x3;
  }

  // The two uint64 draws of block `block` of stream (key, stream): counter
  // words are (block_lo, block_hi, stream_lo, stream_hi) and key words are
  // (key_lo, key_hi). Draws 2i and 2i+1 of the stream are the [0] and [1]
  // halves of block i — the contract RandomSource::NextU64 implements.
  static constexpr void BlockU64(std::uint64_t key, std::uint64_t stream,
                                 std::uint64_t block, std::uint64_t out[2]) {
    std::uint32_t words[4] = {};
    Block(static_cast<std::uint32_t>(block),
          static_cast<std::uint32_t>(block >> 32),
          static_cast<std::uint32_t>(stream),
          static_cast<std::uint32_t>(stream >> 32),
          static_cast<std::uint32_t>(key),
          static_cast<std::uint32_t>(key >> 32), words);
    out[0] = words[0] | (static_cast<std::uint64_t>(words[1]) << 32);
    out[1] = words[2] | (static_cast<std::uint64_t>(words[3]) << 32);
  }
};

// High-level random source with the distributions the protocols need.
//
// In xoshiro mode the stream is the generator state. In philox mode the
// stream is (key, stream id, next draw index) plus a one-block memo: the
// memo caches the two draws of one block keyed by block index, so it can
// never go stale — block values are pure functions of (key, stream, block).
class RandomSource {
 public:
  // Unseeded placeholder (xoshiro mode, all-zero state). Exists so scratch
  // slots that are never drawn from — e.g. the fault injector's streams on
  // a pristine run — skip the seeding work.
  RandomSource() = default;

  explicit RandomSource(std::uint64_t seed) : gen_(seed) {}

  // Derive an independent stream (e.g., per node) from a master seed. Both
  // kinds mix (master_seed, stream) identically; philox uses the mixed
  // value as the block-function key and keeps the raw stream id in the
  // upper counter words as collision insurance.
  static RandomSource ForStream(std::uint64_t master_seed,
                                std::uint64_t stream,
                                RngKind kind = RngKind::kXoshiro) {
    SplitMix64 sm(master_seed ^ (0xa0761d6478bd642fULL * (stream + 1)));
    if (kind == RngKind::kXoshiro) return RandomSource(sm.Next());
    RandomSource rs;
    rs.kind_ = RngKind::kPhilox;
    rs.philox_key_ = sm.Next();
    rs.philox_stream_ = stream;
    return rs;
  }

  std::uint64_t NextU64() {
    if (kind_ == RngKind::kXoshiro) return gen_.Next();
    const std::uint64_t block = philox_draws_ >> 1;
    if (block != cached_block_) {
      Philox4x32::BlockU64(philox_key_, philox_stream_, block, cached_);
      cached_block_ = block;
    }
    return cached_[philox_draws_++ & 1];
  }

  // Uniform integer in [lo, hi], inclusive. Unbiased (Lemire's method).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    CRMC_CHECK(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(NextU64());  // full range
    std::uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * range;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  // ---- Philox state, read by the counter-contract tests. ----
  std::uint64_t philox_key() const { return philox_key_; }
  std::uint64_t philox_stream() const { return philox_stream_; }
  std::uint64_t philox_draws() const { return philox_draws_; }

 private:
  Xoshiro256pp gen_;
  std::uint64_t philox_key_ = 0;
  std::uint64_t philox_stream_ = 0;
  std::uint64_t philox_draws_ = 0;  // index of the next draw
  std::uint64_t cached_[2] = {};
  std::uint64_t cached_block_ = ~0ULL;  // no block memoized
  RngKind kind_ = RngKind::kXoshiro;
};

// Precomputed-range uniform sampler for batch draws.
//
// RandomSource::UniformInt recomputes Lemire's rejection threshold on every
// (rejecting) call. When a whole round of a simulation draws from the same
// [lo, hi] — one draw per active node — the threshold is a loop invariant;
// this class hoists it. Draw(rs) consumes rs exactly like
// rs.UniformInt(lo, hi) and returns the bit-identical result, so batched
// and scalar code paths stay interchangeable in parity tests.
class BatchUniformInt {
 public:
  BatchUniformInt(std::int64_t lo, std::int64_t hi) : lo_(lo) {
    CRMC_CHECK(lo <= hi);
    range_ = static_cast<std::uint64_t>(hi - lo) + 1;
    threshold_ = range_ == 0 ? 0 : (0 - range_) % range_;
  }

  std::int64_t Draw(RandomSource& rs) const {
    std::uint64_t x = rs.NextU64();
    if (range_ == 0) return static_cast<std::int64_t>(x);  // full range
    __uint128_t m = static_cast<__uint128_t>(x) * range_;
    auto low = static_cast<std::uint64_t>(m);
    // Rejection fires iff low < threshold_ (threshold_ < range_, so this
    // is exactly UniformInt's nested low < range_ / low < threshold test).
    while (low < threshold_) {
      x = rs.NextU64();
      m = static_cast<__uint128_t>(x) * range_;
      low = static_cast<std::uint64_t>(m);
    }
    return lo_ + static_cast<std::int64_t>(m >> 64);
  }

  // Parameters, exposed for the batch kernels (src/simd/).
  std::int64_t lo() const { return lo_; }
  std::uint64_t range() const { return range_; }
  std::uint64_t threshold() const { return threshold_; }

 private:
  std::int64_t lo_;
  std::uint64_t range_;
  std::uint64_t threshold_;
};

// Precomputed-probability Bernoulli sampler for batch draws.
//
// RandomSource::Bernoulli(p) compares a 53-bit uniform double against p;
// this class precomputes the equivalent integer threshold so the per-draw
// work is one generator step and one integer compare. Draw(rs) consumes rs
// exactly like rs.Bernoulli(p) (including consuming no draw for p outside
// (0, 1)) and returns the bit-identical result.
class BatchBernoulli {
 public:
  explicit BatchBernoulli(double p) {
    if (p <= 0.0) {
      fixed_ = 0;
    } else if (p >= 1.0) {
      fixed_ = 1;
    } else {
      fixed_ = -1;
      // (x >> 11) * 2^-53 < p  <=>  (x >> 11) < ceil(p * 2^53), exactly:
      // both sides of the original compare are exact doubles, and scaling
      // p by a power of two is lossless.
      threshold_ = static_cast<std::uint64_t>(__builtin_ceil(p * 0x1.0p53));
    }
  }

  bool Draw(RandomSource& rs) const {
    if (fixed_ >= 0) return fixed_ != 0;
    return (rs.NextU64() >> 11) < threshold_;
  }

  // Parameters, exposed for the batch kernels. fixed() in {-1, 0, 1}: -1
  // samples one draw, 0/1 are constant outcomes that consume no draw.
  int fixed() const { return fixed_; }
  std::uint64_t threshold() const { return threshold_; }

 private:
  int fixed_ = -1;  // -1: sample; 0/1: constant outcome, no draw consumed
  std::uint64_t threshold_ = 0;
};

// Reusable scratch for SampleWithoutReplacement: the dense low-slot array
// plus the flat linear-probe displacement table. A caller that samples once
// per trial (the engines) keeps one of these per thread so the per-trial
// cost is draws plus O(k) writes — no allocation, no O(capacity) clears
// (dirty table slots are tracked and reset individually).
struct SampleScratch {
  std::vector<std::int64_t> low;
  std::vector<std::int64_t> keys;
  std::vector<std::int64_t> vals;
  std::vector<std::size_t> dirty;  // table slots holding a live key
};

// Sample `k` distinct values from [1, population] uniformly at random into
// `out`. Uses a sparse Fisher–Yates so it is O(k) time even for huge
// populations (used to hand baseline protocols unique IDs from [n]).
// The full-population case returns the identity permutation outright: the
// simulated nodes are anonymous, so which node holds which ID is already
// an arbitrary labelling and the shuffle (plus its displacement table)
// would be pure overhead on the per-trial setup path.
//
// The displaced-entry table is split: slots below k live in a dense array
// (every i < k is read exactly once, in order), slots >= k in a flat
// linear-probe map at load factor <= 1/2. This runs ~10x faster than the
// obvious unordered_map, which dominated per-trial engine setup. The draw
// sequence and output are identical for every table capacity >= 2k, so
// scratch reuse across calls with different k cannot change results.
inline void SampleWithoutReplacement(std::int64_t population, std::int64_t k,
                                     RandomSource& rng, SampleScratch& scratch,
                                     std::vector<std::int64_t>& out) {
  CRMC_REQUIRE(k >= 0 && k <= population);
  const auto uk = static_cast<std::size_t>(k);
  out.resize(uk);
  if (k == population) {
    for (std::int64_t i = 0; i < k; ++i) {
      out[static_cast<std::size_t>(i)] = i + 1;
    }
    return;
  }
  if (k <= 2) {
    // Hand-unrolled tiny-k path (the two_active engine setup): identical
    // draws and outputs as the general loop below — low[] starts as the
    // identity, so the swap bookkeeping collapses to the j1-collision
    // cases — but no scratch-table traffic.
    if (k >= 1) {
      out[0] = rng.UniformInt(0, population - 1) + 1;
    }
    if (k == 2) {
      const std::int64_t j0 = out[0] - 1;
      const std::int64_t j1 = rng.UniformInt(1, population - 1);
      std::int64_t value;
      if (j1 == 1) {
        value = j0 == 1 ? 0 : 1;  // low[1] after the first swap
      } else if (j1 == j0) {
        value = 0;  // displaced entry: the table would hold low[0]
      } else {
        value = j1;
      }
      out[1] = value + 1;
    }
    return;
  }
  scratch.low.resize(uk);
  for (std::size_t i = 0; i < uk; ++i) {
    scratch.low[i] = static_cast<std::int64_t>(i);
  }
  std::size_t cap = scratch.keys.size();
  if (cap < uk * 2 || cap < 16) {
    cap = 16;
    while (cap < uk * 2) cap <<= 1;
    scratch.keys.assign(cap, -1);
    scratch.vals.resize(cap);
    scratch.dirty.clear();
  } else {
    for (const std::size_t s : scratch.dirty) scratch.keys[s] = -1;
    scratch.dirty.clear();
  }
  const std::size_t mask = cap - 1;
  for (std::int64_t i = 0; i < k; ++i) {
    const std::int64_t j = rng.UniformInt(i, population - 1);
    const std::int64_t value_i = scratch.low[static_cast<std::size_t>(i)];
    std::int64_t value_j;
    if (j < k) {
      value_j = scratch.low[static_cast<std::size_t>(j)];
      scratch.low[static_cast<std::size_t>(j)] = value_i;
    } else {
      std::size_t s = static_cast<std::size_t>(
                          static_cast<std::uint64_t>(j) *
                          0x9e3779b97f4a7c15ULL >> 32) &
                      mask;
      while (scratch.keys[s] != -1 && scratch.keys[s] != j) s = (s + 1) & mask;
      if (scratch.keys[s] == -1) {
        value_j = j;
        scratch.dirty.push_back(s);
      } else {
        value_j = scratch.vals[s];
      }
      scratch.keys[s] = j;
      scratch.vals[s] = value_i;
    }
    out[static_cast<std::size_t>(i)] = value_j + 1;  // shift to 1-based
  }
}

// One-shot convenience (pays the scratch allocations every call).
inline std::vector<std::int64_t> SampleWithoutReplacement(
    std::int64_t population, std::int64_t k, RandomSource& rng) {
  SampleScratch scratch;
  std::vector<std::int64_t> out;
  SampleWithoutReplacement(population, k, rng, scratch, out);
  return out;
}

}  // namespace crmc::support
