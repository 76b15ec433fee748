// Set-associative LRU cache model used for the per-SM L1 and the per-SM
// slice of the device L2.
//
// Only tags are modelled (no data). Stores use write-allocate/write-back
// for L2 and write-through-no-allocate for L1 (the Fermi policy), handled
// by the caller; this class just answers hit/miss and reports dirty
// evictions so DRAM write traffic can be accounted.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

namespace bf::gpusim {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t dirty_evictions = 0;
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class Cache {
 public:
  /// size_bytes is rounded down to a whole number of sets; a zero-sized
  /// cache reports every access as a miss.
  Cache(std::int64_t size_bytes, int line_bytes, int assoc,
        std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  ///< a dirty line was evicted
  };

  /// Look up the line containing `addr`; allocate on miss. `write` marks
  /// the line dirty (write-allocate). Updates LRU and stats.
  AccessResult access(std::uint64_t addr, bool write);

  /// Lookup-without-allocate (write-through-no-allocate store path).
  bool probe(std::uint64_t addr) const;

  /// Mark every dirty line clean and return how many there were (end-of-
  /// kernel write-back accounting).
  std::uint64_t flush_dirty();

  void reset();
  const CacheStats& stats() const { return stats_; }
  int line_bytes() const { return line_bytes_; }
  std::size_t num_sets() const { return sets_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;  ///< access stamp; larger = more recent
    bool valid = false;
    bool dirty = false;
  };

  std::size_t set_index(std::uint64_t addr) const;
  std::uint64_t tag_of(std::uint64_t addr) const;

  int line_bytes_;
  int assoc_;
  std::size_t sets_;
  std::uint64_t stamp_ = 0;
  std::pmr::vector<Way> ways_;  // sets_ * assoc_ entries
  CacheStats stats_;
};

}  // namespace bf::gpusim
