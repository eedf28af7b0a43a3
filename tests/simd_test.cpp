// Bit-exactness for the simd kernel layer: every kernel must match an
// independent reference loop in its outputs AND leave identical per-lane
// RNG state, under every backend available on this binary+CPU. Backends are
// forced via simd::SetBackend, so on an AVX2 host a single run covers
// CompactKeep's scalar and AVX2 bodies.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "support/rng.h"

namespace crmc::simd {
namespace {

using support::BatchBernoulli;
using support::BatchUniformInt;
using support::RandomSource;
using support::RngKind;

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kScalar, Backend::kAvx2}) {
    if (BackendAvailable(b)) out.push_back(b);
  }
  return out;
}

// Restores the prior dispatch choice on scope exit so test order can't leak
// a forced backend into other suites in the same binary.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : prior_(ActiveBackend()) {
    EXPECT_TRUE(SetBackend(b));
  }
  ~ScopedBackend() { SetBackend(prior_); }

 private:
  Backend prior_;
};

std::vector<RandomSource> MakeLanes(std::size_t n, RngKind kind,
                                    std::uint64_t master = 0x5eedULL) {
  std::vector<RandomSource> rng(n);
  SeedStreams(master, 1, kind, rng);
  // Stagger the draw counters so kernels are exercised at odd block
  // offsets, not just counter zero.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < i % 5; ++d) rng[i].NextU64();
  }
  return rng;
}

void ExpectSameLaneState(std::vector<RandomSource>& a,
                         std::vector<RandomSource>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Drawing once from each compares the full generator state for both
    // kinds (counter + key for philox, state words for xoshiro).
    EXPECT_EQ(a[i].NextU64(), b[i].NextU64()) << "lane " << i;
  }
}

TEST(SeedStreams, MatchesForStreamEveryBackendBothKinds) {
  const std::size_t kLanes = 133;
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const Backend backend : AvailableBackends()) {
      ScopedBackend forced(backend);
      std::vector<RandomSource> got(kLanes);
      SeedStreams(0xfeedface12345678ULL, 17, kind, got);
      for (std::size_t i = 0; i < kLanes; ++i) {
        RandomSource want = RandomSource::ForStream(
            0xfeedface12345678ULL, 17 + static_cast<std::uint64_t>(i), kind);
        for (int d = 0; d < 8; ++d) {
          EXPECT_EQ(got[i].NextU64(), want.NextU64())
              << ToString(backend) << " kind=" << support::ToString(kind)
              << " lane=" << i << " draw=" << d;
        }
      }
    }
  }
}

TEST(CoinMask, BitExactAcrossBackends) {
  const std::size_t kLanes = 519;
  std::vector<std::int32_t> alive(kLanes);
  std::iota(alive.begin(), alive.end(), 0);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    for (const double p : {0.0, 0.37, 0.5, 1.0}) {
      const BatchBernoulli coin(p);
      // Scalar reference: the exact Draw() loop.
      std::vector<RandomSource> ref_rng = MakeLanes(kLanes, kind);
      std::vector<std::uint8_t> ref_mask(kLanes);
      std::int64_t ref_successes = 0;
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref_mask[i] = coin.Draw(ref_rng[i]) ? 1 : 0;
        ref_successes += ref_mask[i];
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<RandomSource> rng = MakeLanes(kLanes, kind);
        std::vector<std::uint8_t> mask(kLanes, 0xcc);
        const std::int64_t successes = CoinMask(coin, rng, alive, mask);
        EXPECT_EQ(successes, ref_successes)
            << ToString(backend) << " kind=" << support::ToString(kind)
            << " p=" << p;
        EXPECT_EQ(mask, ref_mask) << ToString(backend) << " p=" << p;
        ExpectSameLaneState(rng, ref_rng);
        // ref_rng advanced one draw in ExpectSameLaneState; rebuild it for
        // the next backend by replaying the reference.
        ref_rng = MakeLanes(kLanes, kind);
        for (std::size_t i = 0; i < kLanes; ++i) coin.Draw(ref_rng[i]);
      }
    }
  }
}

TEST(UniformFill, BitExactAcrossBackends) {
  const std::size_t kLanes = 519;
  std::vector<std::int32_t> alive(kLanes);
  std::iota(alive.begin(), alive.end(), 0);
  for (const RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    // 1..64 is the power-of-two channel pick; 1..37 forces Lemire
    // rejection on some lanes.
    const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
        {1, 64}, {1, 37}, {0, 2}};
    for (const auto& [lo, hi] : ranges) {
      const BatchUniformInt dist(lo, hi);
      std::vector<RandomSource> ref_rng = MakeLanes(kLanes, kind);
      std::vector<std::int32_t> ref_out(kLanes);
      for (std::size_t i = 0; i < kLanes; ++i) {
        ref_out[i] = static_cast<std::int32_t>(dist.Draw(ref_rng[i]));
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<RandomSource> rng = MakeLanes(kLanes, kind);
        std::vector<std::int32_t> out(kLanes, -1);
        UniformFill(dist, rng, alive, out);
        EXPECT_EQ(out, ref_out)
            << ToString(backend) << " kind=" << support::ToString(kind)
            << " range=[" << lo << "," << hi << "]";
        ExpectSameLaneState(rng, ref_rng);
        ref_rng = MakeLanes(kLanes, kind);
        for (std::size_t i = 0; i < kLanes; ++i) dist.Draw(ref_rng[i]);
      }
    }
  }
}

TEST(CoinMask, SparseAliveSubset) {
  // alive need not be the identity: lanes are a strided subset and the
  // untouched lanes' RNG state must not move.
  const std::size_t kLanes = 257;
  std::vector<std::int32_t> alive;
  for (std::size_t i = 0; i < kLanes; i += 3) {
    alive.push_back(static_cast<std::int32_t>(i));
  }
  const BatchBernoulli coin(0.43);
  std::vector<RandomSource> ref_rng = MakeLanes(kLanes, RngKind::kPhilox);
  std::vector<std::uint8_t> ref_mask(alive.size());
  for (std::size_t k = 0; k < alive.size(); ++k) {
    ref_mask[k] =
        coin.Draw(ref_rng[static_cast<std::size_t>(alive[k])]) ? 1 : 0;
  }
  for (const Backend backend : AvailableBackends()) {
    ScopedBackend forced(backend);
    std::vector<RandomSource> rng = MakeLanes(kLanes, RngKind::kPhilox);
    std::vector<std::uint8_t> mask(alive.size());
    CoinMask(coin, rng, alive, mask);
    EXPECT_EQ(mask, ref_mask) << ToString(backend);
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_EQ(rng[i].philox_draws(), ref_rng[i].philox_draws())
          << ToString(backend) << " lane " << i;
    }
  }
}

TEST(CompactKeep, MatchesScalarReferenceAcrossBackendsAndSizes) {
  // Sizes straddle the inline tiny-input fast path (<= 16) and the
  // dispatch path, including vector-width remainders.
  for (const std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 31u, 32u, 100u,
                              255u, 256u, 1000u}) {
    for (std::uint32_t pattern = 0; pattern < 8; ++pattern) {
      std::vector<std::int32_t> ids(n);
      std::vector<std::uint8_t> drop(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<std::int32_t>(i * 7 + 1);
        // Mix of runs and isolated drops keyed by the pattern.
        drop[i] = static_cast<std::uint8_t>(
            ((i * 2654435761u + pattern * 0x9e3779b9u) >> 13) & 1);
      }
      std::vector<std::int32_t> want;
      for (std::size_t i = 0; i < n; ++i) {
        if (drop[i] == 0) want.push_back(ids[i]);
      }
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        std::vector<std::int32_t> got = ids;
        const std::size_t kept = CompactKeep(got, drop);
        ASSERT_EQ(kept, want.size())
            << ToString(backend) << " n=" << n << " pattern=" << pattern;
        got.resize(kept);
        EXPECT_EQ(got, want)
            << ToString(backend) << " n=" << n << " pattern=" << pattern;
      }
    }
  }
}

TEST(ClassifyChannels, MatchesScalarReferenceAcrossBackends) {
  const std::int32_t kChannels = 64;
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 64u, 100u, 513u}) {
    std::vector<std::int32_t> channels(n);
    for (std::size_t i = 0; i < n; ++i) {
      channels[i] =
          1 + static_cast<std::int32_t>((i * 2654435761u >> 8) % kChannels);
    }
    // Reference classification by direct histogram.
    std::vector<int> hist(static_cast<std::size_t>(kChannels) + 1, 0);
    for (const std::int32_t c : channels) ++hist[static_cast<std::size_t>(c)];
    std::int64_t want_lone = 0;
    for (std::int32_t c = 1; c <= kChannels; ++c) {
      if (hist[static_cast<std::size_t>(c)] == 1) ++want_lone;
    }
    std::vector<std::uint8_t> want_lone_mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_lone_mask[i] =
          hist[static_cast<std::size_t>(channels[i])] == 1 ? 1 : 0;
    }
    for (const std::int32_t primary : {1, 7, kChannels}) {
      const bool want_primary =
          hist[static_cast<std::size_t>(primary)] == 1;
      for (const Backend backend : AvailableBackends()) {
        ScopedBackend forced(backend);
        // The contract's minimum size: max channel + 1.
        std::vector<std::uint16_t> counts(
            static_cast<std::size_t>(kChannels) + 1, 0);
        std::vector<std::int32_t> touched;
        std::vector<std::uint8_t> lone(n, 0xcc);
        const Occupancy occ =
            ClassifyChannels(channels, primary, counts, touched, lone);
        EXPECT_EQ(occ.lone_channels, want_lone)
            << ToString(backend) << " n=" << n;
        EXPECT_EQ(occ.primary_lone, want_primary)
            << ToString(backend) << " n=" << n << " primary=" << primary;
        EXPECT_EQ(lone, want_lone_mask) << ToString(backend) << " n=" << n;
        // Contract: counts is sparsely re-zeroed before returning, so the
        // scratch can be handed straight to the next round.
        for (std::size_t c = 0; c < counts.size(); ++c) {
          EXPECT_EQ(counts[c], 0) << ToString(backend) << " counts[" << c
                                  << "] not re-zeroed";
        }
      }
    }
  }
}

// A build or probe regression that silently dropped CompactKeep to scalar
// would leave every result identical and show only as lost speed, so the
// dispatch start state is pinned here.
TEST(Dispatch, StartsAtAvx2WhenTheCpuHasIt) {
  EXPECT_TRUE(BackendAvailable(Backend::kScalar));
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_TRUE(BackendAvailable(Backend::kAvx2));
    EXPECT_EQ(ActiveBackend(), Backend::kAvx2);
    return;
  }
#endif
  EXPECT_FALSE(BackendAvailable(Backend::kAvx2));
  EXPECT_FALSE(SetBackend(Backend::kAvx2));
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
}

}  // namespace
}  // namespace crmc::simd
