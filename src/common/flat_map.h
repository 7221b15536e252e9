// Open-addressed uint64 -> uint32 hash table.
//
// Keys and values live in two flat power-of-two arrays with linear probing
// and backward-shift deletion — no tombstones, no per-entry allocation, and
// Clear() keeps capacity, so a warmed table churns key sets allocation-
// free. Two users: the fluid model's per-resource bucket-key index
// (sim/fluid.h), where node allocation per insert and a pointer chase per
// probe made std::unordered_map the re-rate hot path's worst cache
// behavior, and ConnectionTable's (src, dst) -> connection id index.
//
// The empty sentinel is the all-ones bit pattern, which no key may take;
// insertion checks this. Bucket keys are BucketKey(rate, capped) =
// bit_cast<uint64>(rate) | capped << 63 with `rate` a non-negative finite
// double, whose exponent bits are never all ones; key zero (rate 0.0,
// uncapped) is legal, which is why zero cannot be the sentinel.
// Connection keys pack two non-negative ranks.
//
// Iteration order is never exposed: callers that need a deterministic walk
// keep their own dense vector (the fluid model's flush walks its bucket
// vector, not this index), so probe-order artifacts cannot leak into
// results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace resccl {

class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  // Pointer to the value for `key`, or nullptr if absent. Valid until the
  // next Insert/Erase/Clear.
  [[nodiscard]] std::uint32_t* Find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = Home(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  // Finds `key` or inserts it with a default value; `inserted` reports
  // which. The returned reference is valid until the next mutation.
  [[nodiscard]] std::uint32_t& FindOrInsert(std::uint64_t key,
                                            bool& inserted) {
    RESCCL_CHECK_MSG(key != kEmptyKey, "FlatMap64 key collides with sentinel");
    if (keys_.empty() || (count_ + 1) * 4 > keys_.size() * 3) Grow();
    std::size_t i = Home(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) {
        inserted = false;
        return vals_[i];
      }
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    vals_[i] = 0;
    ++count_;
    inserted = true;
    return vals_[i];
  }

  // Removes `key` (must be present) by backward-shift: subsequent probe
  // chains stay unbroken without tombstones.
  void Erase(std::uint64_t key) {
    RESCCL_CHECK(!keys_.empty());
    std::size_t i = Home(key);
    while (keys_[i] != key) {
      RESCCL_CHECK_MSG(keys_[i] != kEmptyKey, "FlatMap64::Erase: absent key");
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      const std::uint64_t k = keys_[j];
      if (k == kEmptyKey) break;
      // j's element may fill the hole iff its home position does not lie
      // strictly between the hole and j (cyclically) — i.e. moving it back
      // cannot detach it from its probe chain.
      const std::size_t home = Home(k);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = k;
        vals_[hole] = vals_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmptyKey;
    --count_;
  }

  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    count_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

 private:
  [[nodiscard]] std::size_t Home(std::uint64_t key) const {
    // splitmix64 finalizer: full-entropy mix so the low bits taken by the
    // mask depend on every key bit (rates differ mostly in high mantissa
    // and exponent bits).
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask_;
  }

  void Grow() {
    const std::size_t ncap = keys_.empty() ? 16 : keys_.size() * 2;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    keys_.assign(ncap, kEmptyKey);
    vals_.assign(ncap, 0);
    mask_ = ncap - 1;
    count_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      std::size_t j = Home(old_keys[i]);
      while (keys_[j] != kEmptyKey) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
      ++count_;
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace resccl
