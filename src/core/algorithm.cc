#include "core/algorithm.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

namespace resccl {

namespace {

std::string Describe(const Transfer& t, std::size_t index) {
  std::ostringstream os;
  os << "transfer #" << index << " (r" << t.src << "->r" << t.dst << ", step "
     << t.step << ", chunk " << t.chunk << ", " << TransferOpName(t.op) << ")";
  return os.str();
}

// A (src, dst, step, chunk) tuple uniquely identifies a task (§4.2); the op
// does not take part.
bool SameTask(const Transfer& a, const Transfer& b) {
  return a.src == b.src && a.dst == b.dst && a.step == b.step &&
         a.chunk == b.chunk;
}

std::uint64_t TaskHash(const Transfer& t) {
  const auto pack = [](std::int32_t hi, std::int32_t lo) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
           static_cast<std::uint32_t>(lo);
  };
  // splitmix64's finalizer over both halves of the tuple.
  std::uint64_t h =
      pack(t.src, t.dst) * 0x9e3779b97f4a7c15ULL ^ pack(t.step, t.chunk);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

Status Algorithm::Validate() const {
  if (nranks < 2) {
    return Status::InvalidArgument("algorithm needs at least 2 ranks");
  }
  if (nchunks < 1) {
    return Status::InvalidArgument("algorithm needs at least 1 chunk");
  }
  if (transfers.empty()) {
    return Status::InvalidArgument("algorithm has no transfers");
  }
  if (root < 0 || root >= nranks) {
    return Status::InvalidArgument("root rank out of range");
  }
  // Duplicate detection: an open-addressed table of transfer indices at
  // load <= 1/2, probed linearly and compared on the full tuple.
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t mask = std::bit_ceil(2 * transfers.size()) - 1;
  std::vector<std::uint32_t> seen(mask + 1, kEmpty);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    if (t.src < 0 || t.src >= nranks || t.dst < 0 || t.dst >= nranks) {
      return Status::InvalidArgument(Describe(t, i) + ": rank out of range");
    }
    if (t.src == t.dst) {
      return Status::InvalidArgument(Describe(t, i) + ": self transfer");
    }
    if (t.chunk < 0 || t.chunk >= nchunks) {
      return Status::InvalidArgument(Describe(t, i) + ": chunk out of range");
    }
    if (t.step < 0) {
      return Status::InvalidArgument(Describe(t, i) + ": negative step");
    }
    std::size_t slot = TaskHash(t) & mask;
    for (; seen[slot] != kEmpty; slot = (slot + 1) & mask) {
      if (SameTask(transfers[seen[slot]], t)) {
        return Status::InvalidArgument(Describe(t, i) + ": duplicate task");
      }
    }
    seen[slot] = static_cast<std::uint32_t>(i);
  }
  return Status::Ok();
}

}  // namespace resccl
