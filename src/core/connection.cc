#include "core/connection.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace resccl {

LinkId ConnectionTable::Resolve(Rank src, Rank dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) |
                            static_cast<std::uint32_t>(dst);
  if (const std::uint32_t* id = index_.Find(key)) {
    return LinkId(static_cast<std::int32_t>(*id));
  }
  const LinkId id(static_cast<std::int32_t>(paths_.size()));
  const Path& path = topo_.PathBetween(src, dst);  // checks both ranks
  paths_.push_back(&path);
  // Fabric/PCIe pools multiplex without scheduling consequences; only
  // network-tier resources serialize (§4.4).
  std::vector<ResourceId>& serial = serializing_.emplace_back();
  for (ResourceId r : path.resources) {
    if (IsSerializing(topo_.resource(r).kind) &&
        std::find(serial.begin(), serial.end(), r) == serial.end()) {
      serial.push_back(r);
    }
  }
  srcs_.push_back(src);
  dsts_.push_back(dst);
  bool inserted = false;
  index_.FindOrInsert(key, inserted) = static_cast<std::uint32_t>(id.value);
  return id;
}

const Path& ConnectionTable::path(LinkId id) const {
  RESCCL_CHECK(id.valid() &&
               static_cast<std::size_t>(id.value) < paths_.size());
  return *paths_[static_cast<std::size_t>(id.value)];
}

Rank ConnectionTable::src(LinkId id) const {
  RESCCL_CHECK(id.valid() && static_cast<std::size_t>(id.value) < srcs_.size());
  return srcs_[static_cast<std::size_t>(id.value)];
}

Rank ConnectionTable::dst(LinkId id) const {
  RESCCL_CHECK(id.valid() && static_cast<std::size_t>(id.value) < dsts_.size());
  return dsts_[static_cast<std::size_t>(id.value)];
}

const std::vector<ResourceId>& ConnectionTable::serializing(LinkId id) const {
  RESCCL_CHECK(id.valid() &&
               static_cast<std::size_t>(id.value) < serializing_.size());
  return serializing_[static_cast<std::size_t>(id.value)];
}

bool ConnectionTable::Conflicts(LinkId a, LinkId b) const {
  if (a == b) return true;  // the same GPU-pair link (§3)
  // Distinct pairs conflict only through a shared NIC, trunk, or spine
  // link (§4.4).
  const std::vector<ResourceId>& sb = serializing(b);
  for (ResourceId r : serializing(a)) {
    if (std::find(sb.begin(), sb.end(), r) != sb.end()) return true;
  }
  return false;
}

}  // namespace resccl
