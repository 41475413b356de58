// The one-shard reference the golden suites compare sharded runs against:
// the same reserves and taps, joined into one connected component by bridge
// taps the engine never registers. The partitioner unions the edge of every
// kernel tap, but only registered taps get plan entries, so a bridge joins
// two components without moving a nanojoule. Bridges take object ids, which
// every later object's id shifts past: compare reserves by name and taps
// through RegisteredTaps, not by raw id.
#pragma once

#include <vector>

#include "src/core/tap_engine.h"
#include "src/histar/kernel.h"

namespace cinder {

// Joins `r`'s component to `hub`'s with an unregistered tap.
inline void BridgeReserve(Kernel& kernel, ObjectId hub, const Reserve& r) {
  kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), r.name() + "/bridge", hub,
                     r.id());
}

// The taps `engine` flows, in id order: the same list in a rig with bridges
// as in one without.
inline std::vector<ObjectId> RegisteredTaps(Kernel& kernel, const TapEngine& engine) {
  std::vector<ObjectId> out;
  for (ObjectId id : kernel.ObjectsOfType(ObjectType::kTap)) {
    if (engine.IsRegistered(id)) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace cinder
