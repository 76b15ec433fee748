#include "gpusim/sharedmem.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace bf::gpusim {

namespace {

/// Address -> (word, bank) mapping of one architecture; shifts and masks
/// when the bank width and bank count are powers of two.
class BankMap {
 public:
  explicit BankMap(const ArchSpec& arch)
      : width_(static_cast<std::uint32_t>(arch.shared_bank_width_bytes)),
        banks_(static_cast<std::uint32_t>(arch.shared_banks)) {
    BF_CHECK(banks_ > 0 && banks_ <= 64 && width_ > 0);
    if (std::has_single_bit(width_) && std::has_single_bit(banks_)) {
      shift_ = std::countr_zero(width_);
    }
  }

  std::uint32_t word(std::uint32_t addr) const {
    return shift_ >= 0 ? addr >> shift_ : addr / width_;
  }
  std::uint32_t bank(std::uint32_t word) const {
    return shift_ >= 0 ? word & (banks_ - 1) : word % banks_;
  }

 private:
  std::uint32_t width_;
  std::uint32_t banks_;
  int shift_ = -1;
};

/// The most distinct words any one bank receives: sort (bank, word) keys
/// of the active lanes, drop repeats, and take the longest run of a bank.
int max_distinct_words_per_bank(const WarpInstr& instr, const BankMap& map) {
  std::array<std::uint64_t, 32> keys;
  int n = 0;
  for (std::uint32_t m = instr.mask; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    const std::uint32_t word = map.word(instr.addr[static_cast<std::size_t>(lane)]);
    keys[static_cast<std::size_t>(n++)] =
        (static_cast<std::uint64_t>(map.bank(word)) << 32) | word;
  }
  std::sort(keys.begin(), keys.begin() + n);
  const auto last = std::unique(keys.begin(), keys.begin() + n);
  int passes = 0;
  int run = 0;
  for (auto it = keys.begin(); it != last; ++it) {
    run = (it != keys.begin() && (*it >> 32) == (*(it - 1) >> 32)) ? run + 1 : 1;
    passes = std::max(passes, run);
  }
  return passes;
}

}  // namespace

int shared_access_passes(const WarpInstr& instr, const ArchSpec& arch) {
  BF_CHECK_MSG(instr.op == Op::kLdShared || instr.op == Op::kStShared,
               "shared_access_passes on non-shared instruction");
  const BankMap map(arch);

  // One pass over the active lanes: the first lane on a bank claims it;
  // a later lane on a claimed bank either broadcasts (same word) or
  // conflicts, and only a conflict pays for the exact count.
  std::uint64_t claimed = 0;
  std::array<std::uint32_t, 64> bank_word;
  for (std::uint32_t m = instr.mask; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    const std::uint32_t word = map.word(instr.addr[static_cast<std::size_t>(lane)]);
    const std::uint32_t bank = map.bank(word);
    const std::uint64_t bit = std::uint64_t{1} << bank;
    if ((claimed & bit) == 0) {
      claimed |= bit;
      bank_word[bank] = word;
    } else if (bank_word[bank] != word) {
      return max_distinct_words_per_bank(instr, map);
    }
  }
  return 1;
}

int shared_atomic_passes(const WarpInstr& instr, const ArchSpec& arch) {
  BF_CHECK_MSG(instr.op == Op::kAtomicShared,
               "shared_atomic_passes on non-atomic instruction");
  const BankMap map(arch);

  // Per bank, count ALL active lanes (duplicated addresses serialise too).
  std::array<int, 64> counts{};
  int passes = 1;
  for (std::uint32_t m = instr.mask; m != 0; m &= m - 1) {
    const int lane = std::countr_zero(m);
    const std::uint32_t bank =
        map.bank(map.word(instr.addr[static_cast<std::size_t>(lane)]));
    passes = std::max(passes, ++counts[bank]);
  }
  return passes;
}

}  // namespace bf::gpusim
