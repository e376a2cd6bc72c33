#include "yardstick.hpp"

#include <algorithm>
#include <utility>

#include "tracer.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kChaseSlots = 1u << 16;  // 256 KiB: misses L1, fits L2
constexpr std::size_t kHeapSize = 2048;
constexpr std::size_t kTableSlots = 8192;  // power of two
constexpr std::uint32_t kSteps = 100000;

std::uint64_t lcg(std::uint64_t x) { return x * 6364136223846793005ULL + 1442695040888963407ULL; }

}  // namespace

Yardstick::Yardstick() : next_(kChaseSlots), table_(kTableSlots, 0) {
  std::vector<std::uint32_t> order(kChaseSlots);
  for (std::uint32_t i = 0; i < kChaseSlots; ++i) order[i] = i;
  std::uint64_t x = 1;
  for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
    x = lcg(x);
    std::swap(order[i], order[(x >> 33) % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < kChaseSlots; ++i) {
    next_[order[i]] = order[(i + 1) % kChaseSlots];
  }
  heap_.reserve(kHeapSize + 1);
  sink_ += work();  // first touch of every page, untimed
}

double Yardstick::measure() {
  const double start = cpu_seconds();
  sink_ += work();
  return cpu_seconds() - start;
}

std::uint64_t Yardstick::work() {
  std::uint64_t x = 12345, acc = 0;
  std::uint32_t at = 0;
  heap_.clear();
  std::fill(table_.begin(), table_.end(), 0);
  for (std::uint32_t i = 0; i < kSteps; ++i) {
    x = lcg(x);
    at = next_[at];
    heap_.push_back(x >> 40);  // sift up
    for (std::size_t c = heap_.size() - 1; c > 0;) {
      const std::size_t p = (c - 1) / 2;
      if (heap_[p] <= heap_[c]) break;
      std::swap(heap_[p], heap_[c]);
      c = p;
    }
    if (heap_.size() > kHeapSize) {  // pop the minimum, sift down
      acc += heap_[0];
      heap_[0] = heap_.back();
      heap_.pop_back();
      for (std::size_t p = 0;;) {
        std::size_t c = 2 * p + 1;
        if (c >= heap_.size()) break;
        if (c + 1 < heap_.size() && heap_[c + 1] < heap_[c]) ++c;
        if (heap_[p] <= heap_[c]) break;
        std::swap(heap_[p], heap_[c]);
        p = c;
      }
    }
    const std::uint64_t key = at | 1;  // nonzero: 0 marks an empty slot
    for (std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> 51;;
         slot = (slot + 1) & (kTableSlots - 1)) {
      if (table_[slot] == key) {
        acc += slot;
        break;
      }
      if (table_[slot] == 0) {
        table_[slot] = key;
        break;
      }
    }
    if ((i & 4095) == 4095) std::fill(table_.begin(), table_.end(), 0);  // keep probes short
  }
  return acc + at;
}

}  // namespace perfbench
