// The kernels of simd/kernels.h, plus CompactKeep's AVX2 body.
//
// CoinMask, UniformFill and ClassifyChannels are scalar on purpose: SSE4.2
// and AVX2 Philox draw kernels and an AVX2 gather classification were
// measured no faster than these loops end to end (the gather was slower
// outright). CompactKeep's permute-based compaction is the one vector path
// that pays, on knockout-heavy rounds.
#include <algorithm>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>

#include <array>
#include <bit>
#endif

#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "support/assert.h"

namespace crmc::simd {
namespace {

void CheckUniformFitsInt32(const support::BatchUniformInt& dist) {
  CRMC_CHECK_MSG(dist.range() != 0 &&
                     dist.range() <= static_cast<std::uint64_t>(
                                         std::numeric_limits<std::int32_t>::max()) &&
                     dist.lo() >= std::numeric_limits<std::int32_t>::min() &&
                     dist.lo() + static_cast<std::int64_t>(dist.range()) - 1 <=
                         std::numeric_limits<std::int32_t>::max(),
                 "UniformFill is for int32 channel picks; range ["
                     << dist.lo() << ", "
                     << dist.lo() + static_cast<std::int64_t>(dist.range() - 1)
                     << "] does not fit");
}

#if defined(__x86_64__)

struct PermRow {
  std::uint32_t idx[8];
};

// lut[mask] lists the set-bit positions of `mask` in ascending order — the
// permutevar8x32 pattern that packs kept lanes to the front.
constexpr std::array<PermRow, 256> MakeCompactLut() {
  std::array<PermRow, 256> lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int write = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if (mask & (1 << bit)) {
        lut[static_cast<std::size_t>(mask)].idx[write++] =
            static_cast<std::uint32_t>(bit);
      }
    }
  }
  return lut;
}

constexpr std::array<PermRow, 256> kCompactLut = MakeCompactLut();

// Eight lanes per step: the drop bytes become a keep bitmask, whose LUT row
// permutes the kept ids to the front of the vector. Only called when
// ActiveBackend() is kAvx2, i.e. after the cpuid probe found AVX2.
__attribute__((target("avx2"))) std::size_t CompactKeepAvx2(
    std::span<std::int32_t> ids, std::span<const std::uint8_t> drop) {
  const std::size_t m = ids.size();
  std::size_t write = 0;
  std::size_t read = 0;
  // In-place is safe: write <= read, the 8 source lanes are loaded before
  // the (possibly overlapping) store, and write + 8 <= read + 8 <= m.
  for (; read + 8 <= m; read += 8) {
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(drop.data() + read));
    const unsigned keep_bits =
        static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_setzero_si128()))) &
        0xFFu;
    const __m256i vals =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids.data() + read));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompactLut[keep_bits].idx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids.data() + write),
                        _mm256_permutevar8x32_epi32(vals, perm));
    write += static_cast<std::size_t>(std::popcount(keep_bits));
  }
  return internal::CompactKeepFrom(ids, drop, read, write);
}

#endif  // __x86_64__

}  // namespace

void SeedStreams(std::uint64_t master_seed, std::uint64_t first_stream,
                 support::RngKind kind,
                 std::span<support::RandomSource> out) {
  // Scalar on purpose. An AVX2 four-stream variant was benchmarked at 0.6x
  // (xoshiro) / 0.3x (philox) of scalar on the reference machine:
  // SplitMix64 is 64-bit-multiply-bound and pre-AVX-512 vector units
  // emulate that multiply with three 32-bit ones plus shifts, losing to
  // scalar `imul`. The kernel's win over a per-node push_back loop is the
  // in-place batch fill, not vector math.
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = support::RandomSource::ForStream(
        master_seed, first_stream + static_cast<std::uint64_t>(k), kind);
  }
}

std::int64_t CoinMask(const support::BatchBernoulli& coin,
                      std::span<support::RandomSource> rng,
                      std::span<const std::int32_t> alive,
                      std::span<std::uint8_t> mask) {
  CRMC_CHECK(mask.size() == alive.size());
  if (coin.fixed() >= 0) {
    const auto v = static_cast<std::uint8_t>(coin.fixed() != 0);
    std::fill(mask.begin(), mask.end(), v);
    return v ? static_cast<std::int64_t>(alive.size()) : 0;
  }
  const std::uint64_t threshold = coin.threshold();
  std::int64_t successes = 0;
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const auto s = static_cast<std::size_t>(alive[k]);
    const bool hit = (rng[s].NextU64() >> 11) < threshold;
    mask[k] = static_cast<std::uint8_t>(hit);
    successes += hit;
  }
  return successes;
}

void UniformFill(const support::BatchUniformInt& dist,
                 std::span<support::RandomSource> rng,
                 std::span<const std::int32_t> alive,
                 std::span<std::int32_t> out) {
  CRMC_CHECK(out.size() == alive.size());
  CheckUniformFitsInt32(dist);
  for (std::size_t k = 0; k < alive.size(); ++k) {
    out[k] = static_cast<std::int32_t>(
        dist.Draw(rng[static_cast<std::size_t>(alive[k])]));
  }
}

std::size_t internal::CompactKeepDispatch(std::span<std::int32_t> ids,
                                          std::span<const std::uint8_t> drop) {
#if defined(__x86_64__)
  if (ActiveBackend() == Backend::kAvx2) return CompactKeepAvx2(ids, drop);
#endif
  return CompactKeepFrom(ids, drop, 0, 0);
}

Occupancy ClassifyChannels(std::span<const std::int32_t> channels,
                           std::int32_t primary,
                           std::span<std::uint16_t> counts,
                           std::vector<std::int32_t>& touched,
                           std::span<std::uint8_t> lone) {
  CRMC_CHECK(lone.size() == channels.size());
  touched.clear();
  for (const std::int32_t ch : channels) {
    std::uint16_t& cnt = counts[static_cast<std::size_t>(ch)];
    if (cnt == 0) touched.push_back(ch);
    if (cnt < 2) ++cnt;  // saturate: only 0 / 1 / 2+ matter
  }
  for (std::size_t k = 0; k < channels.size(); ++k) {
    lone[k] = static_cast<std::uint8_t>(
        counts[static_cast<std::size_t>(channels[k])] == 1);
  }
  Occupancy occ;
  for (const std::int32_t ch : touched) {
    std::uint16_t& cnt = counts[static_cast<std::size_t>(ch)];
    if (cnt == 1) {
      ++occ.lone_channels;
      if (ch == primary) occ.primary_lone = true;
    }
    cnt = 0;  // restore the all-zero scratch invariant
  }
  return occ;
}

}  // namespace crmc::simd
