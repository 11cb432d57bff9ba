// CRC-32 (IEEE, reflected 0xEDB88320): every compiled kernel tier and the
// dispatching crc32/crc32_update must equal the byte-at-a-time bitwise
// definition for every length, alignment and split (DESIGN.md §20).
#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/crc32_kernels.h"
#include "common/rng.h"

namespace mandipass::common {
namespace {

// The definition, one bit at a time: no table shared with any tier.
std::uint32_t reference_update(std::uint32_t seed, const unsigned char* p, std::size_t n) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0U ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
  }
  return ~c;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<unsigned char>(rng());
  }
  return bytes;
}

std::vector<const detail::Crc32Kernel*> compiled_tiers() {
  std::vector<const detail::Crc32Kernel*> tiers{detail::crc32_generic()};
  if (detail::crc32_pclmul() != nullptr) {
    tiers.push_back(detail::crc32_pclmul());
  }
  return tiers;
}

std::uint32_t tier_crc(const detail::Crc32Kernel* tier, std::uint32_t seed,
                       const unsigned char* p, std::size_t n) {
  return ~tier->update(~seed, p, n);
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926U);
  EXPECT_EQ(crc32(nullptr, 0), 0U);
  EXPECT_EQ(crc32(std::string_view()), 0U);
  EXPECT_EQ(crc32_update(0x12345678U, nullptr, 0), 0x12345678U);
}

TEST(Crc32, EveryLengthAndOffsetMatchesTheBitwiseDefinition) {
  const auto bytes = random_bytes(1100 + 16, 1);
  const auto tiers = compiled_tiers();
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* p = bytes.data() + offset;
    std::uint32_t expected = 0;  // reference over p[0, n), grown one byte per length
    for (std::size_t n = 0; n <= 1100; ++n) {
      if (n > 0) {
        expected = reference_update(expected, p + n - 1, 1);
      }
      ASSERT_EQ(crc32(p, n), expected) << "offset " << offset << " length " << n;
      for (const auto* tier : tiers) {
        ASSERT_EQ(tier_crc(tier, 0, p, n), expected)
            << tier->name << " offset " << offset << " length " << n;
      }
    }
  }
}

TEST(Crc32, UpdateIsSplitInvariant) {
  const auto bytes = random_bytes(300, 2);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, reference_update(0, bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32_update(0, bytes.data(), split);
    EXPECT_EQ(crc32_update(head, bytes.data() + split, bytes.size() - split), whole)
        << "split " << split;
  }
}

TEST(Crc32, OneMebibyteMatchesTheBitwiseDefinition) {
  const auto bytes = random_bytes(std::size_t{1} << 20U, 3);
  const std::uint32_t expected = reference_update(0, bytes.data(), bytes.size());
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), expected);
  // Odd splits put every tier's block boundaries mid-stream.
  const std::uint32_t head = crc32_update(0, bytes.data(), 333'333);
  EXPECT_EQ(crc32_update(head, bytes.data() + 333'333, bytes.size() - 333'333), expected);
  for (const auto* tier : compiled_tiers()) {
    EXPECT_EQ(tier_crc(tier, 0, bytes.data(), bytes.size()), expected) << tier->name;
  }
}

TEST(Crc32, EveryCompiledTierMatchesTheDefinitionFromAnySeed) {
  const auto bytes = random_bytes(4096 + 7, 4);
  for (const std::uint32_t seed : {0U, 1U, 0xFFFFFFFFU, 0xCBF43926U}) {
    for (const std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{79},
                                std::size_t{128}, std::size_t{4096 + 7}}) {
      const std::uint32_t expected = reference_update(seed, bytes.data(), n);
      for (const auto* tier : compiled_tiers()) {
        EXPECT_EQ(tier_crc(tier, seed, bytes.data(), n), expected)
            << tier->name << " seed " << seed << " length " << n;
      }
    }
  }
}

TEST(Crc32, ActiveTierIsThePreferredCompiledOne) {
  const char* active = detail::crc32_active()->name;
#if defined(MANDIPASS_FORCE_GENERIC_KERNELS)
  EXPECT_STREQ(active, "generic");
  EXPECT_EQ(detail::crc32_pclmul(), nullptr);
#else
  EXPECT_STREQ(active, detail::crc32_pclmul() != nullptr ? "pclmul" : "generic");
#if defined(__x86_64__) || defined(__i386__)
  // The tier TU is built -march=native, so a host with PCLMULQDQ and
  // SSE4.1 must have it compiled in.
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    EXPECT_STREQ(active, "pclmul");
  }
#endif
#endif
}

}  // namespace
}  // namespace mandipass::common
