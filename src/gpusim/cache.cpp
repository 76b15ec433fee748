#include "gpusim/cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bf::gpusim {

Cache::Cache(std::int64_t size_bytes, int line_bytes, int assoc,
             std::pmr::memory_resource* memory)
    : line_bytes_(line_bytes), assoc_(assoc), ways_(memory) {
  BF_CHECK_MSG(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
               "cache line size must be a power of two");
  BF_CHECK_MSG(assoc >= 1, "associativity must be >= 1");
  const std::int64_t lines = size_bytes / line_bytes;
  sets_ = static_cast<std::size_t>(std::max<std::int64_t>(0, lines / assoc));
  ways_.assign(sets_ * static_cast<std::size_t>(assoc_), Way{});
}

std::size_t Cache::set_index(std::uint64_t addr) const {
  return static_cast<std::size_t>(
      (addr / static_cast<std::uint64_t>(line_bytes_)) % sets_);
}

std::uint64_t Cache::tag_of(std::uint64_t addr) const {
  return addr / static_cast<std::uint64_t>(line_bytes_) / sets_;
}

Cache::AccessResult Cache::access(std::uint64_t addr, bool write) {
  AccessResult out;
  if (sets_ == 0) {
    ++stats_.misses;
    return out;  // degenerate cache: always miss, nothing to evict
  }
  const std::size_t base = set_index(addr) * static_cast<std::size_t>(assoc_);
  const std::uint64_t tag = tag_of(addr);
  ++stamp_;

  for (std::size_t w = base; w < base + static_cast<std::size_t>(assoc_);
       ++w) {
    Way& way = ways_[w];
    if (way.valid && way.tag == tag) {
      way.lru = stamp_;
      way.dirty = way.dirty || write;
      ++stats_.hits;
      out.hit = true;
      return out;
    }
  }
  // Miss: pick a victim — an invalid way if available, else the LRU way.
  std::size_t victim = base;
  for (std::size_t w = base; w < base + static_cast<std::size_t>(assoc_);
       ++w) {
    if (!ways_[w].valid) {
      victim = w;
      break;
    }
    if (ways_[w].lru < ways_[victim].lru) victim = w;
  }

  ++stats_.misses;
  Way& way = ways_[victim];
  if (way.valid && way.dirty) {
    ++stats_.dirty_evictions;
    out.writeback = true;
  }
  way.valid = true;
  way.tag = tag;
  way.lru = stamp_;
  way.dirty = write;
  return out;
}

bool Cache::probe(std::uint64_t addr) const {
  if (sets_ == 0) return false;
  const std::size_t base = set_index(addr) * static_cast<std::size_t>(assoc_);
  const std::uint64_t tag = tag_of(addr);
  for (std::size_t w = base; w < base + static_cast<std::size_t>(assoc_);
       ++w) {
    if (ways_[w].valid && ways_[w].tag == tag) return true;
  }
  return false;
}

std::uint64_t Cache::flush_dirty() {
  std::uint64_t n = 0;
  for (auto& way : ways_) {
    if (way.valid && way.dirty) {
      way.dirty = false;
      ++n;
    }
  }
  return n;
}

void Cache::reset() {
  std::fill(ways_.begin(), ways_.end(), Way{});
  stats_ = CacheStats{};
  stamp_ = 0;
}

}  // namespace bf::gpusim
