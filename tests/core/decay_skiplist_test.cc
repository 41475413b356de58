// The decay skip-list: DecayShard only visits reserves that can actually
// leak (non-empty, non-exempt, energy), pruning lazily and re-adding through
// the ReserveDecayListener hook on Deposit / set_decay_exempt. These tests
// pin the transitions that happen *without* a kernel mutation — the cases a
// plan rebuild cannot catch.
#include <gtest/gtest.h>

#include "src/core/tap_engine.h"

namespace cinder {
namespace {

class DecaySkipListTest : public ::testing::Test {
 protected:
  DecaySkipListTest() {
    battery_ = k_.Create<Reserve>(k_.root_container_id(), Label(Level::k1), "battery");
    battery_->set_decay_exempt(true);
    engine_ = std::make_unique<TapEngine>(&k_, battery_->id());
    engine_->decay().enabled = true;
    engine_->decay().half_life = Duration::Seconds(10);
  }

  Reserve* NewReserve(const char* name) {
    return k_.Create<Reserve>(k_.root_container_id(), Label(Level::k1), name);
  }

  Kernel k_;
  Reserve* battery_ = nullptr;
  std::unique_ptr<TapEngine> engine_;
};

TEST_F(DecaySkipListTest, RefilledReserveResumesDecayWithoutKernelMutation) {
  Reserve* r = NewReserve("r");
  r->Deposit(1000000);
  engine_->RunBatch(Duration::Seconds(1));  // Decays; r is on the skip-list.
  const Quantity after_first = r->level();
  EXPECT_LT(after_first, 1000000);

  // Drain to empty with a plain Withdraw (no epoch bump), let a batch prune
  // it, then refill — again without any kernel mutation. The listener must
  // put it back on the list.
  r->Withdraw(r->level());
  engine_->RunBatch(Duration::Seconds(1));  // Prunes the empty reserve.
  EXPECT_EQ(r->level(), 0);
  r->Deposit(500000);
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_LT(r->level(), 500000) << "refilled reserve must decay again";
}

TEST_F(DecaySkipListTest, UnexemptingResumesDecayWithoutKernelMutation) {
  Reserve* r = NewReserve("r");
  r->Deposit(1000000);
  r->set_decay_exempt(true);
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_EQ(r->level(), 1000000);

  r->set_decay_exempt(false);  // Plain setter: no epoch bump.
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_LT(r->level(), 1000000) << "un-exempted reserve must start decaying";
}

TEST_F(DecaySkipListTest, ExemptToggleMidEpochStopsDecay) {
  Reserve* r = NewReserve("r");
  r->Deposit(1000000);
  engine_->RunBatch(Duration::Seconds(1));
  const Quantity after = r->level();
  r->set_decay_exempt(true);
  engine_->RunBatch(Duration::Seconds(1));  // Visits once, prunes.
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_EQ(r->level(), after);
  // And back: the listener re-adds it.
  r->set_decay_exempt(false);
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_LT(r->level(), after);
}

TEST_F(DecaySkipListTest, EmptyReserveKeepsItsCarryWhileSkipped) {
  Reserve* r = NewReserve("r");
  r->Deposit(3);  // Tiny: decay wants < 1 per batch, so it all goes to carry.
  engine_->RunBatch(Duration::Millis(10));
  const double carry = r->decay_carry();
  EXPECT_GT(carry, 0.0);
  r->Withdraw(r->level());
  // Several batches while empty: the skip-list never visits it, so the carry
  // must be exactly untouched (the pre-skip-list engine skipped without
  // touching carry too).
  for (int i = 0; i < 100; ++i) {
    engine_->RunBatch(Duration::Millis(10));
  }
  EXPECT_TRUE(r->decay_carry() == carry);
}

TEST_F(DecaySkipListTest, DebtReserveDoesNotJoinUntilPositive) {
  Reserve* r = NewReserve("r");
  r->set_allow_debt(true);
  ASSERT_EQ(r->Consume(1000), Status::kOk);  // Now at -1000.
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_EQ(r->level(), -1000);  // Decay never pushes a reserve below zero.
  r->Deposit(400);  // Still negative: listener must not add it.
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_EQ(r->level(), -600);
  r->Deposit(1000600);  // Positive now: joins the list and decays.
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_LT(r->level(), 1000000);
  EXPECT_GT(r->level(), 0);
}

TEST_F(DecaySkipListTest, NonEnergyReservesNeverDecay) {
  Reserve* bytes = k_.Create<Reserve>(k_.root_container_id(), Label(Level::k1), "bytes",
                                      ResourceKind::kNetBytes);
  bytes->Deposit(1000000);
  for (int i = 0; i < 50; ++i) {
    engine_->RunBatch(Duration::Seconds(1));
  }
  EXPECT_EQ(bytes->level(), 1000000);
}

TEST_F(DecaySkipListTest, DeletedReserveDisappearsFromSkipList) {
  Reserve* r = NewReserve("r");
  r->Deposit(1000000);
  engine_->RunBatch(Duration::Seconds(1));  // On the list.
  ASSERT_EQ(k_.Delete(r->id()), Status::kOk);
  // The delete invalidates the plan; the next batch must not touch the dead
  // reserve (ASan/valgrind would flag it) and decay keeps working for others.
  Reserve* other = NewReserve("other");
  other->Deposit(1000000);
  engine_->RunBatch(Duration::Seconds(1));
  EXPECT_LT(other->level(), 1000000);
}

}  // namespace
}  // namespace cinder
