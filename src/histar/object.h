// Kernel object base type.
//
// HiStar exposes six first-class object types (segments, threads, address
// spaces, devices, containers, gates); Cinder adds reserves and taps. All are
// protected by a security label and live in exactly one container (except the
// root container), giving hierarchical deallocation.
#pragma once

#include <cstdint>
#include <string>

#include "src/histar/label.h"

namespace cinder {

using ObjectId = uint64_t;
inline constexpr ObjectId kInvalidObjectId = 0;

// A generation-tagged reference to a kernel object's slab slot. Unlike an
// ObjectId (which resolves through the id map), a handle goes straight to the
// slot array: the generation tag is bumped every time a slot is recycled, so
// a stale handle misses deterministically instead of aliasing the slot's new
// tenant. Handles stay valid across id-map compaction, which makes them the
// right key for long-lived side tables (the tap engine's state banks) that
// must survive delete-heavy churn.
struct ObjectHandle {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t slot = kNoSlot;
  uint32_t generation = 0;

  bool valid() const { return slot != kNoSlot; }
  bool operator==(const ObjectHandle& o) const {
    return slot == o.slot && generation == o.generation;
  }
};

// The kernel's cache-invalidation counters (Kernel::mutation_epoch and
// Kernel::access_epoch), kept side by side so an object carries one pointer
// to both.
struct ObjectEpochs {
  uint64_t mutation = 0;
  uint64_t access = 0;
};

enum class ObjectType : uint8_t {
  kContainer,
  kSegment,
  kThread,
  kAddressSpace,
  kGate,
  kDevice,
  kReserve,
  kTap,
};

std::string_view ObjectTypeName(ObjectType t);

class KernelObject {
 public:
  KernelObject(ObjectId id, ObjectType type, Label label, std::string name)
      : id_(id), type_(type), label_(std::move(label)), name_(std::move(name)) {}
  virtual ~KernelObject() = default;

  KernelObject(const KernelObject&) = delete;
  KernelObject& operator=(const KernelObject&) = delete;

  ObjectId id() const { return id_; }
  ObjectType type() const { return type_; }
  const Label& label() const { return label_; }
  void set_label(Label l) {
    label_ = std::move(l);
    BumpAccessEpoch();
  }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  ObjectId parent() const { return parent_; }
  void set_parent(ObjectId p) { parent_ = p; }

  // Kernel wiring: registered objects share the kernel's epochs so
  // security-relevant mutations (label changes, embedded-credential changes)
  // invalidate caches keyed on them (the tap engine's flow plan, the
  // scheduler's resolved run queue). Null for objects built outside a kernel.
  void AttachEpochs(ObjectEpochs* epochs) { epochs_ = epochs; }

 protected:
  // A change to who may use the object: bumps the mutation epoch and the
  // access epoch, which only such changes move.
  void BumpAccessEpoch() {
    if (epochs_ != nullptr) {
      ++epochs_->mutation;
      ++epochs_->access;
    }
  }

 private:
  ObjectId id_;
  ObjectType type_;
  Label label_;
  std::string name_;
  ObjectId parent_ = kInvalidObjectId;
  ObjectEpochs* epochs_ = nullptr;
};

}  // namespace cinder
