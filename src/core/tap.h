// Taps: rate-limited resource transfer between two reserves (paper §3.3).
//
// A tap is "an efficient, special-purpose thread whose only job is to
// transfer energy between reserves"; in practice the TapEngine executes all
// tap flows in a periodic batch. Two rate forms exist:
//
//   * constant:     a fixed quantity per second (e.g. 750 mW in Figure 1);
//   * proportional: a fraction of the *source* reserve per second. A
//     "backward" proportional tap is simply a proportional tap whose source
//     is the application reserve and whose sink is the reserve that feeds it,
//     forcing unused energy to be shared (Figure 6b).
//
// A tap embeds the label and privileges of its creator, so it can keep moving
// resources between reserves the manipulating thread itself could not touch
// (paper section 3.5).
#pragma once

#include "src/base/units.h"
#include "src/core/resource.h"
#include "src/core/state_bank.h"
#include "src/histar/object.h"

namespace cinder {

enum class TapType : uint8_t {
  kConstant,      // rate_per_sec quantity units per second.
  kProportional,  // fraction_per_sec of the source level per second.
};

class Tap final : public KernelObject {
 public:
  Tap(ObjectId id, Label label, std::string name, ObjectId source, ObjectId sink)
      : KernelObject(id, ObjectType::kTap, std::move(label), std::move(name)),
        source_(source),
        sink_(sink) {}

  ObjectId source() const { return source_; }
  ObjectId sink() const { return sink_; }

  TapType tap_type() const { return type_; }
  QuantityRate rate_per_sec() const { return rate_per_sec_; }
  double fraction_per_sec() const { return fraction_per_sec_; }

  // Rate and type changes are plain member writes (no epoch bump) mirrored
  // into the attached TapStateBank, so a mid-epoch change is visible to the
  // very next batch — same contract as the pre-bank engine, which read these
  // fields fresh from the object.
  void SetConstantRate(QuantityRate per_sec) {
    type_ = TapType::kConstant;
    rate_per_sec_ = per_sec < 0 ? 0 : per_sec;
    if (bank_ != nullptr) {
      bank_->set_rate(bank_slot_, rate_per_sec_);
      bank_->set_flag(bank_slot_, TapStateBank::kProportional, false);
    }
  }
  void SetConstantPower(Power p) { SetConstantRate(RateFromPower(p)); }
  void SetProportionalRate(double fraction_per_sec) {
    type_ = TapType::kProportional;
    fraction_per_sec_ = fraction_per_sec < 0 ? 0.0 : fraction_per_sec;
    if (bank_ != nullptr) {
      bank_->set_fraction(bank_slot_, fraction_per_sec_);
      bank_->set_flag(bank_slot_, TapStateBank::kProportional, true);
    }
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool v) {
    enabled_ = v;
    if (bank_ != nullptr) {
      bank_->set_flag(bank_slot_, TapStateBank::kEnabled, v);
    }
  }

  // Privileges embedded at creation: the flow check uses these, not the
  // current thread's.
  const Label& actor_label() const { return actor_label_; }
  const CategorySet& embedded_privileges() const { return embedded_privs_; }
  void EmbedCredentials(Label actor, CategorySet privs) {
    actor_label_ = std::move(actor);
    embedded_privs_ = std::move(privs);
    // Credential changes alter which flows pass the label check, so cached
    // flow plans must be rebuilt.
    BumpAccessEpoch();
  }

  // -- Flow bookkeeping (TapEngine only) ---------------------------------------
  // Live in the TapStateBank while a flow plan holds this tap (the batch hot
  // loop updates them through flat arrays); written back on plan invalidation.
  Quantity total_transferred() const {
    return bank_ != nullptr ? bank_->transferred_total(bank_slot_) : total_transferred_;
  }
  void AddTransferred(Quantity q) {
    if (bank_ != nullptr) {
      bank_->set_transferred_total(bank_slot_, bank_->transferred_total(bank_slot_) + q);
    } else {
      total_transferred_ += q;
    }
  }
  // Sub-unit remainder carried between batches so small rates still flow
  // exactly (e.g. a 1 uW tap at a 10 ms batch moves 10 nJ per batch).
  double carry() const { return bank_ != nullptr ? bank_->carry(bank_slot_) : carry_; }
  void set_carry(double c) {
    if (bank_ != nullptr) {
      bank_->set_carry(bank_slot_, c);
    } else {
      carry_ = c;
    }
  }

  // -- State-bank attachment (TapEngine only) -----------------------------------
  void AttachBank(TapStateBank* bank, uint32_t slot, ObjectHandle self) {
    DetachBank();
    bank_ = bank;
    bank_slot_ = slot;
    bank->set_carry(slot, carry_);
    bank->set_transferred_total(slot, total_transferred_);
    bank->set_rate(slot, rate_per_sec_);
    bank->set_fraction(slot, fraction_per_sec_);
    bank->set_flag(slot, TapStateBank::kEnabled, enabled_);
    bank->set_flag(slot, TapStateBank::kProportional, type_ == TapType::kProportional);
    bank->set_handle(slot, self);
  }
  void DetachBank() {
    if (bank_ == nullptr) {
      return;
    }
    carry_ = bank_->carry(bank_slot_);
    total_transferred_ = bank_->transferred_total(bank_slot_);
    bank_ = nullptr;
    bank_slot_ = kNoBankSlot;
  }
  bool bank_attached() const { return bank_ != nullptr; }
  const TapStateBank* bank() const { return bank_; }
  uint32_t bank_slot() const { return bank_slot_; }

 private:
  ObjectId source_;
  ObjectId sink_;
  TapType type_ = TapType::kConstant;
  QuantityRate rate_per_sec_ = 0;
  double fraction_per_sec_ = 0.0;
  bool enabled_ = true;
  TapStateBank* bank_ = nullptr;
  uint32_t bank_slot_ = kNoBankSlot;
  Label actor_label_{Level::k1};
  CategorySet embedded_privs_;
  Quantity total_transferred_ = 0;
  double carry_ = 0.0;
};

}  // namespace cinder
