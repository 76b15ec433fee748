// Seeded property tests for the shared-memory bank model and the
// coalescer: the fast paths must agree with brute-force references kept
// here, on random and on adversarial access patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/sharedmem.hpp"

namespace bf::gpusim {
namespace {

/// Distinct words per bank, by definition: passes = the largest count.
int reference_access_passes(const WarpInstr& in, const ArchSpec& arch) {
  std::map<std::uint32_t, std::set<std::uint32_t>> words;
  for (int lane = 0; lane < 32; ++lane) {
    if (((in.mask >> lane) & 1u) == 0) continue;
    const std::uint32_t word =
        in.addr[static_cast<std::size_t>(lane)] /
        static_cast<std::uint32_t>(arch.shared_bank_width_bytes);
    words[word % static_cast<std::uint32_t>(arch.shared_banks)].insert(word);
  }
  std::size_t passes = 1;
  for (const auto& [bank, set] : words) passes = std::max(passes, set.size());
  return static_cast<int>(passes);
}

/// Active lanes per bank, duplicates included.
int reference_atomic_passes(const WarpInstr& in, const ArchSpec& arch) {
  std::map<std::uint32_t, int> lanes;
  int passes = 1;
  for (int lane = 0; lane < 32; ++lane) {
    if (((in.mask >> lane) & 1u) == 0) continue;
    const std::uint32_t word =
        in.addr[static_cast<std::size_t>(lane)] /
        static_cast<std::uint32_t>(arch.shared_bank_width_bytes);
    passes = std::max(
        passes, ++lanes[word % static_cast<std::uint32_t>(arch.shared_banks)]);
  }
  return passes;
}

std::set<std::uint64_t> reference_segments(const WarpInstr& in, int seg) {
  std::set<std::uint64_t> out;
  for (int lane = 0; lane < 32; ++lane) {
    if (((in.mask >> lane) & 1u) == 0) continue;
    const std::uint64_t a = in.addr[static_cast<std::size_t>(lane)];
    for (std::uint64_t b = a; b < a + in.access_bytes; ++b) {
      out.insert(b / static_cast<std::uint64_t>(seg) *
                 static_cast<std::uint64_t>(seg));
    }
  }
  return out;
}

ArchSpec arch_with_banks(int banks, int width) {
  ArchSpec arch = gtx580();
  arch.shared_banks = banks;
  arch.shared_bank_width_bytes = width;
  return arch;
}

/// The bank geometries under test: both paper GPUs, 64 banks, an 8-byte
/// bank width, a non-power-of-two width and a non-power-of-two count.
std::vector<ArchSpec> bank_geometries() {
  return {gtx580(),
          kepler_k20m(),
          arch_with_banks(64, 4),
          arch_with_banks(32, 8),
          arch_with_banks(32, 12),
          arch_with_banks(24, 4),
          arch_with_banks(64, 6)};
}

/// One random warp access under a full, prefix or random mask.
/// `word_span` bounds the distinct words, so small spans force collisions.
WarpInstr random_access(Rng& rng, Op op, const ArchSpec& arch,
                        std::uint64_t word_span) {
  WarpInstr in;
  in.op = op;
  switch (rng.uniform_index(4)) {
    case 0: in.mask = kFullMask; break;
    case 1: in.mask = mask_first_lanes(1 + static_cast<int>(rng.uniform_index(32))); break;
    default: in.mask = static_cast<std::uint32_t>(rng()) | 1u; break;
  }
  const auto width = static_cast<std::uint32_t>(arch.shared_bank_width_bytes);
  for (auto& a : in.addr) {
    const auto word = static_cast<std::uint32_t>(rng.uniform_index(word_span));
    // Any byte inside the word: the bank model must ignore the offset.
    a = word * width + static_cast<std::uint32_t>(rng.uniform_index(width));
  }
  return in;
}

TEST(BankConflictProperty, RandomAccessesMatchBruteForce) {
  Rng rng(20240611);
  for (const ArchSpec& arch : bank_geometries()) {
    SCOPED_TRACE(std::to_string(arch.shared_banks) + " banks x " +
                 std::to_string(arch.shared_bank_width_bytes) + " B");
    for (const std::uint64_t span : {1ull, 3ull, 40ull, 256ull, 1ull << 20}) {
      for (int trial = 0; trial < 400; ++trial) {
        for (const Op op : {Op::kLdShared, Op::kStShared}) {
          const WarpInstr in = random_access(rng, op, arch, span);
          ASSERT_EQ(shared_access_passes(in, arch),
                    reference_access_passes(in, arch));
        }
        WarpInstr atomic = random_access(rng, Op::kAtomicShared, arch, span);
        ASSERT_EQ(shared_atomic_passes(atomic, arch),
                  reference_atomic_passes(atomic, arch));
      }
    }
  }
}

TEST(BankConflictProperty, AdversarialPatternsMatchBruteForce) {
  for (const ArchSpec& arch : bank_geometries()) {
    const auto width = static_cast<std::uint32_t>(arch.shared_bank_width_bytes);
    const auto banks = static_cast<std::uint32_t>(arch.shared_banks);
    std::vector<std::array<std::uint32_t, 32>> patterns;
    std::array<std::uint32_t, 32> a{};
    a.fill(7 * width);  // broadcast: one word for every lane
    patterns.push_back(a);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      a[lane] = lane * banks * width;  // all lanes, one bank, distinct words
    }
    patterns.push_back(a);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      a[lane] = (lane % 2) * banks * width;  // one bank, two words
    }
    patterns.push_back(a);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      a[lane] = lane * width;  // consecutive words
    }
    patterns.push_back(a);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      a[lane] = (lane / 4) * width;  // groups of four share a word
    }
    patterns.push_back(a);
    for (const auto& addr : patterns) {
      for (const std::uint32_t mask :
           {kFullMask, 0x1u, 0x80000001u, 0x0000ffffu, 0xaaaaaaaau}) {
        WarpInstr in;
        in.mask = mask;
        in.addr = addr;
        in.op = Op::kLdShared;
        EXPECT_EQ(shared_access_passes(in, arch),
                  reference_access_passes(in, arch));
        in.op = Op::kAtomicShared;
        EXPECT_EQ(shared_atomic_passes(in, arch),
                  reference_atomic_passes(in, arch));
      }
    }
  }
}

TEST(CoalescerProperty, SegmentsMatchBruteForce) {
  Rng rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    WarpInstr in;
    in.op = Op::kLdGlobal;
    in.mask = trial % 3 == 0 ? kFullMask
                             : static_cast<std::uint32_t>(rng()) | 1u;
    in.access_bytes = static_cast<std::uint8_t>(1u << rng.uniform_index(5));
    // Ascending, descending, or scattered lane addresses.
    const auto base = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
    const auto stride = static_cast<std::uint32_t>(rng.uniform_index(300));
    const std::uint64_t shape = rng.uniform_index(3);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      in.addr[lane] =
          shape == 0   ? base + lane * stride
          : shape == 1 ? base + (31 - lane) * stride
                       : static_cast<std::uint32_t>(rng.uniform_index(4096));
    }
    for (const int seg : {32, 128}) {
      const auto want = reference_segments(in, seg);
      const Segments got = coalesce(in, seg);
      ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
                std::vector<std::uint64_t>(want.begin(), want.end()));
    }
  }
}

}  // namespace
}  // namespace bf::gpusim
