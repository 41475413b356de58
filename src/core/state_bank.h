// Structure-of-arrays banks for the hot mutable state of reserves and taps.
//
// Profiling showed large tap batches (BM_TapBatch/32768) are memory-bound:
// every tap visit chased `Tap*`/`Reserve*` pointers into slab objects
// scattered across the heap, paying a cache line per endpoint for a few bytes
// of actual state. The banks collapse that footprint: while a flow plan is
// live, the tap engine owns each reserve's level / deposited total / decay
// carry / decay flags and each plan entry's carry / transferred / rate /
// enabled bits as parallel flat arrays, laid out shard-major so every shard's
// slice starts cache-line aligned (like the engine's `want_`/`group_demand_`
// slices). The batch hot loops walk nothing but these arrays.
//
// Lifetime contract (see docs/PERFORMANCE.md):
//   * snapshot — RebuildPlan copies object state into the bank and attaches
//     each object (bank pointer + slot); an in-place plan update does the
//     same for the objects it adds, in the bank's spare tail. From then on
//     the bank is the live copy: the object's public accessors read and
//     write through its slot, so cold-path callers (syscalls, scheduler,
//     meter, examples) observe identical semantics mid-plan.
//   * write-back — on the next full rebuild or engine destruction, bank
//     state is copied back into the surviving objects and they detach.
//     Objects deleted mid-epoch simply miss during write-back: slots are
//     keyed by generation-tagged ObjectHandles, so a recycled slab slot can
//     never alias a dead reserve's state. An in-place update zeroes the
//     slots of the objects it drops (ClearSlot).
//
// Fields that are only cold-written but hot-read (tap rates, the enabled and
// exempt bits) stay authoritative on the object and are mirrored into the
// bank by their setters, so mid-epoch toggles take effect on the very next
// batch without an epoch bump — exactly like the pre-bank engine.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/resource.h"
#include "src/histar/object.h"

namespace cinder {

inline constexpr uint32_t kNoBankSlot = UINT32_MAX;

namespace bank_internal {

// Sizes `v` to `slots` zeroed elements with room for `capacity` more than
// that, over-allocated so the returned working base starts on a cache-line
// boundary: per-shard slice padding alone cannot help if the heap block
// itself starts mid-line. Grow64 within the room never moves the base, and
// the spare room stays untouched (not resident) until it is used. A block
// too small is freed before the bigger one is taken, so the allocator can
// reuse it.
template <typename T>
T* Align64(std::vector<T>& v, size_t slots, size_t capacity) {
  constexpr size_t kPad = 64 / sizeof(T);
  const size_t room = (capacity > slots ? capacity : slots) + kPad;
  if (v.capacity() < room) {
    std::vector<T>().swap(v);
    v.reserve(room);
  }
  v.assign(slots + kPad, T{});
  auto addr = reinterpret_cast<uintptr_t>(v.data());
  return reinterpret_cast<T*>((addr + 63) & ~uintptr_t{63});
}

// Extends an Align64 vector to `slots` (within its room); the new elements
// are zero.
template <typename T>
void Grow64(std::vector<T>& v, size_t slots) {
  v.resize(slots + 64 / sizeof(T));
}

}  // namespace bank_internal

// Hot mutable reserve state, one slot per live reserve, shard-major. The
// level / deposited / carry arrays are the live copy while attached; the
// flags byte mirrors the object's exempt bit and owns the decay skip-list
// membership bit.
class ReserveStateBank {
 public:
  enum Flag : uint8_t {
    kDecayExempt = 1,  // Mirrored from Reserve::decay_exempt().
    kInDecayList = 2,  // Owned by the bank: on a shard's decay skip-list.
    kDecayWired = 4,   // Assigned to a decay shard (energy, not the root).
    kStrayShard = 8,   // No tap touches it: round-robined to its shard, so it
                       // belongs to no component. Its decay leaks to the
                       // battery root even under DecayConfig::to_shard_root.
  };

  // Sizes the bank to `slots` zeroed slots, allocating room for `capacity`
  // (at least `slots`): Grow() fills the spare tail without moving any cell.
  void Reset(uint32_t slots, uint32_t capacity = 0) {
    size_ = slots;
    capacity_ = capacity > slots ? capacity : slots;
    level_base_ = bank_internal::Align64(level_, slots, capacity_);
    deposited_base_ = bank_internal::Align64(deposited_, slots, capacity_);
    carry_base_ = bank_internal::Align64(carry_, slots, capacity_);
    flags_base_ = bank_internal::Align64(flags_, slots, capacity_);
    handles_.reserve(capacity_);
    handles_.assign(slots, ObjectHandle{});
  }
  void Clear() { Reset(0); }
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }
  // Extends the bank to `slots` (<= capacity()) without moving any cell; the
  // new slots are zero.
  void Grow(uint32_t slots) {
    size_ = slots;
    bank_internal::Grow64(level_, slots);
    bank_internal::Grow64(deposited_, slots);
    bank_internal::Grow64(carry_, slots);
    bank_internal::Grow64(flags_, slots);
    handles_.resize(slots);
  }
  // Zeroes a slot and drops its write-back handle.
  void ClearSlot(uint32_t slot) {
    level_base_[slot] = 0;
    deposited_base_[slot] = 0;
    carry_base_[slot] = 0.0;
    flags_base_[slot] = 0;
    handles_[slot] = ObjectHandle{};
  }

  // Aligned working bases for the batch hot loops.
  Quantity* levels() { return level_base_; }
  Quantity* deposited() { return deposited_base_; }
  double* carries() { return carry_base_; }
  uint8_t* flags() { return flags_base_; }

  // Write-back keys; padding slots keep an invalid handle.
  ObjectHandle handle(uint32_t slot) const { return handles_[slot]; }
  void set_handle(uint32_t slot, ObjectHandle h) { handles_[slot] = h; }

  // Per-slot accessors for Reserve's write-through path.
  Quantity level(uint32_t slot) const { return level_base_[slot]; }
  void set_level(uint32_t slot, Quantity v) { level_base_[slot] = v; }
  // Stable address of a slot's level for the epoch this bank snapshot lives:
  // the scheduler caches these (keyed on the kernel mutation epoch) so its
  // per-quantum billing reads levels with one dereference instead of an
  // attached-check branch per call. Any rebuild or in-place update bumps the
  // epoch, so a cached cell can never outlive the arrays it points into.
  Quantity* level_cell(uint32_t slot) { return level_base_ + slot; }
  Quantity deposited_total(uint32_t slot) const { return deposited_base_[slot]; }
  void set_deposited_total(uint32_t slot, Quantity v) { deposited_base_[slot] = v; }
  double carry(uint32_t slot) const { return carry_base_[slot]; }
  void set_carry(uint32_t slot, double v) { carry_base_[slot] = v; }
  bool flag(uint32_t slot, Flag f) const { return (flags_base_[slot] & f) != 0; }
  void set_flag(uint32_t slot, Flag f, bool v) {
    if (v) {
      flags_base_[slot] |= f;
    } else {
      flags_base_[slot] &= static_cast<uint8_t>(~f);
    }
  }

 private:
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  std::vector<Quantity> level_;
  std::vector<Quantity> deposited_;
  std::vector<double> carry_;
  std::vector<uint8_t> flags_;
  std::vector<ObjectHandle> handles_;
  Quantity* level_base_ = nullptr;
  Quantity* deposited_base_ = nullptr;
  double* carry_base_ = nullptr;
  uint8_t* flags_base_ = nullptr;
};

// Hot mutable tap state, one slot per flow-plan entry (the engine's padded
// per-entry index, so slices are shard-exclusive like `want_`). Carry and
// transferred are the live copy while attached; flags / rate / fraction are
// mirrored from the Tap's setters so mid-epoch rate or enabled changes are
// visible next batch without an epoch bump.
class TapStateBank {
 public:
  enum Flag : uint8_t {
    kEnabled = 1,       // Mirrored from Tap::enabled().
    kProportional = 2,  // Mirrored from Tap::tap_type().
  };

  // Same contract as ReserveStateBank::Reset / Grow / ClearSlot.
  void Reset(uint32_t slots, uint32_t capacity = 0) {
    size_ = slots;
    capacity_ = capacity > slots ? capacity : slots;
    carry_base_ = bank_internal::Align64(carry_, slots, capacity_);
    transferred_base_ = bank_internal::Align64(transferred_, slots, capacity_);
    rate_base_ = bank_internal::Align64(rate_, slots, capacity_);
    fraction_base_ = bank_internal::Align64(fraction_, slots, capacity_);
    flags_base_ = bank_internal::Align64(flags_, slots, capacity_);
    handles_.reserve(capacity_);
    handles_.assign(slots, ObjectHandle{});
  }
  void Clear() { Reset(0); }
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }
  void Grow(uint32_t slots) {
    size_ = slots;
    bank_internal::Grow64(carry_, slots);
    bank_internal::Grow64(transferred_, slots);
    bank_internal::Grow64(rate_, slots);
    bank_internal::Grow64(fraction_, slots);
    bank_internal::Grow64(flags_, slots);
    handles_.resize(slots);
  }
  void ClearSlot(uint32_t slot) {
    carry_base_[slot] = 0.0;
    transferred_base_[slot] = 0;
    rate_base_[slot] = 0;
    fraction_base_[slot] = 0.0;
    flags_base_[slot] = 0;
    handles_[slot] = ObjectHandle{};
  }

  double* carries() { return carry_base_; }
  Quantity* transferred() { return transferred_base_; }
  QuantityRate* rates() { return rate_base_; }
  double* fractions() { return fraction_base_; }
  uint8_t* flags() { return flags_base_; }

  ObjectHandle handle(uint32_t slot) const { return handles_[slot]; }
  void set_handle(uint32_t slot, ObjectHandle h) { handles_[slot] = h; }

  double carry(uint32_t slot) const { return carry_base_[slot]; }
  void set_carry(uint32_t slot, double v) { carry_base_[slot] = v; }
  Quantity transferred_total(uint32_t slot) const { return transferred_base_[slot]; }
  void set_transferred_total(uint32_t slot, Quantity v) { transferred_base_[slot] = v; }
  void set_rate(uint32_t slot, QuantityRate r) { rate_base_[slot] = r; }
  void set_fraction(uint32_t slot, double f) { fraction_base_[slot] = f; }
  bool flag(uint32_t slot, Flag f) const { return (flags_base_[slot] & f) != 0; }
  void set_flag(uint32_t slot, Flag f, bool v) {
    if (v) {
      flags_base_[slot] |= f;
    } else {
      flags_base_[slot] &= static_cast<uint8_t>(~f);
    }
  }

 private:
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  std::vector<double> carry_;
  std::vector<Quantity> transferred_;
  std::vector<QuantityRate> rate_;
  std::vector<double> fraction_;
  std::vector<uint8_t> flags_;
  std::vector<ObjectHandle> handles_;
  double* carry_base_ = nullptr;
  Quantity* transferred_base_ = nullptr;
  QuantityRate* rate_base_ = nullptr;
  double* fraction_base_ = nullptr;
  uint8_t* flags_base_ = nullptr;
};

}  // namespace cinder
