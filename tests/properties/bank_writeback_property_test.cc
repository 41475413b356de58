// Property test for the state-bank write-back contract: a banked, sharded
// TapEngine interleaving batches with random mid-run mutations — creates,
// deletes, exempt flips, deposits, withdraws, rate changes — must stay
// bit-identical to a bank-free reference engine that re-resolves everything
// from the kernel objects every batch. The reference implements the seed
// semantics directly (two passes in tap-id order, proportional sharing,
// carries, decay toward the battery) with no caching, no plan, no bank, so
// any snapshot/write-back bug in the real engine shows up as a divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"

namespace cinder {
namespace {

// The bank-free reference: walks the kernel objects through their public API
// every batch. Deliberately naive — correctness bar, not a hot path.
class ReferenceFlows {
 public:
  ReferenceFlows(Kernel* kernel, ObjectId battery) : kernel_(kernel), battery_(battery) {}

  DecayConfig& decay() { return decay_; }

  void Register(ObjectId tap_id) {
    auto it = std::lower_bound(taps_.begin(), taps_.end(), tap_id);
    if (it == taps_.end() || *it != tap_id) {
      taps_.insert(it, tap_id);
    }
  }
  void Unregister(ObjectId tap_id) {
    auto it = std::lower_bound(taps_.begin(), taps_.end(), tap_id);
    if (it != taps_.end() && *it == tap_id) {
      taps_.erase(it);
    }
  }

  void RunBatch(Duration dt) {
    if (!dt.IsPositive()) {
      return;
    }
    const double dt_s = dt.seconds_f();
    struct Entry {
      Tap* tap;
      Reserve* src;
      Reserve* dst;
      double want;
      size_t group;
    };
    std::vector<Entry> plan;
    std::vector<double> demand;
    std::vector<ObjectId> group_source;
    for (ObjectId id : taps_) {
      Tap* tap = kernel_->LookupTyped<Tap>(id);
      if (tap == nullptr) {
        continue;
      }
      Reserve* src = kernel_->LookupTyped<Reserve>(tap->source());
      Reserve* dst = kernel_->LookupTyped<Reserve>(tap->sink());
      if (src == nullptr || dst == nullptr) {
        continue;
      }
      if (!Kernel::CanUseWith(tap->actor_label(), tap->embedded_privileges(), *src) ||
          !Kernel::CanUseWith(tap->actor_label(), tap->embedded_privileges(), *dst)) {
        continue;
      }
      auto git = std::find(group_source.begin(), group_source.end(), tap->source());
      size_t group = git - group_source.begin();
      if (git == group_source.end()) {
        group_source.push_back(tap->source());
        demand.push_back(0.0);
      }
      plan.push_back({tap, src, dst, 0.0, group});
    }
    // Pass 1: demand. Disabled taps are skipped with their carry untouched.
    for (Entry& e : plan) {
      if (!e.tap->enabled()) {
        e.want = -1.0;
        continue;
      }
      double want = e.tap->carry();
      if (e.tap->tap_type() == TapType::kConstant) {
        want += static_cast<double>(e.tap->rate_per_sec()) * dt_s;
      } else {
        const Quantity level = e.src->level() > 0 ? e.src->level() : 0;
        want += static_cast<double>(level) * e.tap->fraction_per_sec() * dt_s;
      }
      e.want = want;
      demand[e.group] += want;
    }
    // Pass 2: proportional share of whatever is available, tap-id order.
    for (Entry& e : plan) {
      if (e.want < 0.0) {
        continue;
      }
      const double avail = e.src->level() > 0 ? static_cast<double>(e.src->level()) : 0.0;
      double& d = demand[e.group];
      const double scale = (d > avail && d > 0.0) ? avail / d : 1.0;
      const double granted = e.want * scale;
      d -= e.want;
      auto whole = static_cast<Quantity>(granted);
      e.tap->set_carry(granted - static_cast<double>(whole));
      if (whole <= 0) {
        continue;
      }
      const Quantity moved = e.src->Withdraw(whole);
      if (moved > 0) {
        e.dst->Deposit(moved);
        e.tap->AddTransferred(moved);
      }
    }
    // Decay: every non-exempt, non-empty energy reserve leaks to the battery.
    if (!decay_.enabled) {
      return;
    }
    const double frac = 1.0 - std::exp2(-dt_s / decay_.half_life.seconds_f());
    Quantity leaked = 0;
    for (ObjectId id : kernel_->ObjectsOfType(ObjectType::kReserve)) {
      Reserve* r = kernel_->LookupTyped<Reserve>(id);
      if (id == battery_ || r->kind() != ResourceKind::kEnergy || r->decay_exempt() ||
          r->level() <= 0) {
        continue;
      }
      double want = r->decay_carry() + static_cast<double>(r->level()) * frac;
      auto whole = static_cast<Quantity>(want);
      r->set_decay_carry(want - static_cast<double>(whole));
      if (whole > 0) {
        leaked += r->Withdraw(whole);
      }
    }
    if (leaked > 0) {
      if (Reserve* battery = kernel_->LookupTyped<Reserve>(battery_); battery != nullptr) {
        battery->Deposit(leaked);
      }
    }
  }

 private:
  Kernel* kernel_;
  ObjectId battery_;
  DecayConfig decay_;
  std::vector<ObjectId> taps_;
};

// One side of the twin setup: a kernel plus either the real (banked, sharded)
// engine or the reference. Ids line up across twins because every mutation is
// applied to both in the same order.
struct Side {
  Kernel kernel;
  ObjectId battery = kInvalidObjectId;
  std::unique_ptr<TapEngine> engine;        // Real side only.
  std::unique_ptr<ReferenceFlows> reference;  // Reference side only.

  explicit Side(ShardExecutor* executor) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(20000.0)));
    battery = b->id();
    if (executor != nullptr) {
      engine = std::make_unique<TapEngine>(&kernel, battery);
      engine->decay().enabled = true;
      engine->decay().half_life = Duration::Seconds(45);
      engine->set_executor(executor);
    } else {
      reference = std::make_unique<ReferenceFlows>(&kernel, battery);
      reference->decay().enabled = true;
      reference->decay().half_life = Duration::Seconds(45);
    }
  }

  void RunBatch(Duration dt) {
    if (engine != nullptr) {
      engine->RunBatch(dt);
    } else {
      reference->RunBatch(dt);
    }
  }
};

class BankWritebackProperty : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(BankWritebackProperty, BankedEngineMatchesBankFreeReferenceBitForBit) {
  const int workers = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  ShardExecutor exec(workers);
  Side real(&exec);
  Side ref(nullptr);

  // Live object pools, same order on both sides (ids are identical since both
  // kernels see the same creation sequence).
  std::vector<ObjectId> reserves;
  std::vector<ObjectId> taps;

  auto create_reserve = [&] {
    const std::string name = "r" + std::to_string(reserves.size());
    Reserve* a = real.kernel.Create<Reserve>(real.kernel.root_container_id(), Label(Level::k1),
                                             name);
    Reserve* b = ref.kernel.Create<Reserve>(ref.kernel.root_container_id(), Label(Level::k1),
                                            name);
    ASSERT_EQ(a->id(), b->id());
    const auto amount = static_cast<Quantity>(rng.UniformU64(2000000000));
    a->Deposit(amount);
    b->Deposit(amount);
    reserves.push_back(a->id());
  };
  auto create_tap = [&] {
    if (reserves.size() < 2) {
      return;
    }
    const size_t ia = rng.UniformU64(reserves.size());
    const size_t ib = rng.UniformU64(reserves.size());
    if (ia == ib) {
      return;
    }
    const std::string name = "t" + std::to_string(taps.size());
    Tap* a = real.kernel.Create<Tap>(real.kernel.root_container_id(), Label(Level::k1), name,
                                     reserves[ia], reserves[ib]);
    Tap* b = ref.kernel.Create<Tap>(ref.kernel.root_container_id(), Label(Level::k1), name,
                                    reserves[ia], reserves[ib]);
    ASSERT_EQ(a->id(), b->id());
    if (rng.Bernoulli(0.5)) {
      const auto rate = static_cast<QuantityRate>(rng.UniformU64(400000000));
      a->SetConstantRate(rate);
      b->SetConstantRate(rate);
    } else {
      const double frac = rng.UniformRange(0.0, 0.7);
      a->SetProportionalRate(frac);
      b->SetProportionalRate(frac);
    }
    ASSERT_TRUE(real.engine->Register(a->id()));
    ref.reference->Register(b->id());
    taps.push_back(a->id());
  };

  // Seed topology: a handful of components.
  for (int i = 0; i < 12; ++i) {
    create_reserve();
  }
  for (int i = 0; i < 10; ++i) {
    create_tap();
  }

  auto expect_identical = [&](int round) {
    SCOPED_TRACE("workers=" + std::to_string(workers) + " seed=" + std::to_string(seed) +
                 " round=" + std::to_string(round));
    const auto& want_ids = ref.kernel.ObjectsOfType(ObjectType::kReserve);
    const auto& got_ids = real.kernel.ObjectsOfType(ObjectType::kReserve);
    ASSERT_EQ(want_ids.size(), got_ids.size());
    for (size_t i = 0; i < want_ids.size(); ++i) {
      ASSERT_EQ(want_ids[i], got_ids[i]);
      const Reserve* w = ref.kernel.LookupTyped<Reserve>(want_ids[i]);
      const Reserve* g = real.kernel.LookupTyped<Reserve>(got_ids[i]);
      EXPECT_EQ(w->level(), g->level()) << w->name();
      EXPECT_EQ(w->total_deposited(), g->total_deposited()) << w->name();
      EXPECT_EQ(w->total_consumed(), g->total_consumed()) << w->name();
      EXPECT_TRUE(w->decay_carry() == g->decay_carry()) << w->name();
    }
    const auto& want_taps = ref.kernel.ObjectsOfType(ObjectType::kTap);
    const auto& got_taps = real.kernel.ObjectsOfType(ObjectType::kTap);
    ASSERT_EQ(want_taps.size(), got_taps.size());
    for (size_t i = 0; i < want_taps.size(); ++i) {
      const Tap* w = ref.kernel.LookupTyped<Tap>(want_taps[i]);
      const Tap* g = real.kernel.LookupTyped<Tap>(got_taps[i]);
      EXPECT_EQ(w->total_transferred(), g->total_transferred()) << w->name();
      EXPECT_TRUE(w->carry() == g->carry()) << w->name();
    }
  };

  for (int round = 0; round < 50; ++round) {
    // A burst of batches with irregular durations.
    const int batches = 5 + static_cast<int>(rng.UniformU64(20));
    for (int i = 0; i < batches; ++i) {
      const Duration dt = Duration::Micros(1000 + static_cast<int64_t>(rng.UniformU64(25000)));
      real.RunBatch(dt);
      ref.RunBatch(dt);
    }
    // One random mutation, applied to both sides. Deposits, withdraws, rate
    // and exempt flips happen *mid-epoch* — no kernel mutation — so they hit
    // the bank write-through path; creates and deletes force a full
    // write-back + re-snapshot.
    const uint64_t op = rng.UniformU64(8);
    switch (op) {
      case 0:
        create_reserve();
        break;
      case 1:
        create_tap();
        break;
      case 2: {  // Delete a tap.
        if (!taps.empty()) {
          const size_t i = rng.UniformU64(taps.size());
          ASSERT_EQ(real.kernel.Delete(taps[i]), Status::kOk);
          ASSERT_EQ(ref.kernel.Delete(taps[i]), Status::kOk);
          ref.reference->Unregister(taps[i]);
          taps.erase(taps.begin() + i);
        }
        break;
      }
      case 3: {  // Delete a reserve (taps touching it turn inert).
        if (reserves.size() > 4) {
          const size_t i = rng.UniformU64(reserves.size());
          ASSERT_EQ(real.kernel.Delete(reserves[i]), Status::kOk);
          ASSERT_EQ(ref.kernel.Delete(reserves[i]), Status::kOk);
          reserves.erase(reserves.begin() + i);
        }
        break;
      }
      case 4: {  // Exempt flip.
        if (!reserves.empty()) {
          const size_t i = rng.UniformU64(reserves.size());
          Reserve* a = real.kernel.LookupTyped<Reserve>(reserves[i]);
          Reserve* b = ref.kernel.LookupTyped<Reserve>(reserves[i]);
          const bool v = !a->decay_exempt();
          a->set_decay_exempt(v);
          b->set_decay_exempt(v);
        }
        break;
      }
      case 5: {  // Deposit.
        if (!reserves.empty()) {
          const size_t i = rng.UniformU64(reserves.size());
          const auto amount = static_cast<Quantity>(rng.UniformU64(500000000));
          real.kernel.LookupTyped<Reserve>(reserves[i])->Deposit(amount);
          ref.kernel.LookupTyped<Reserve>(reserves[i])->Deposit(amount);
        }
        break;
      }
      case 6: {  // Withdraw (possibly draining to empty).
        if (!reserves.empty()) {
          const size_t i = rng.UniformU64(reserves.size());
          Reserve* a = real.kernel.LookupTyped<Reserve>(reserves[i]);
          Reserve* b = ref.kernel.LookupTyped<Reserve>(reserves[i]);
          const Quantity amount = rng.Bernoulli(0.3)
                                      ? a->level()
                                      : static_cast<Quantity>(rng.UniformU64(300000000));
          EXPECT_EQ(a->Withdraw(amount), b->Withdraw(amount));
        }
        break;
      }
      case 7: {  // Rate change on a live tap (mid-epoch, mirrored via bank).
        if (!taps.empty()) {
          const size_t i = rng.UniformU64(taps.size());
          Tap* a = real.kernel.LookupTyped<Tap>(taps[i]);
          Tap* b = ref.kernel.LookupTyped<Tap>(taps[i]);
          if (rng.Bernoulli(0.5)) {
            const auto rate = static_cast<QuantityRate>(rng.UniformU64(300000000));
            a->SetConstantRate(rate);
            b->SetConstantRate(rate);
          } else {
            const bool v = !a->enabled();
            a->set_enabled(v);
            b->set_enabled(v);
          }
        }
        break;
      }
      default:
        break;
    }
    expect_identical(round);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersAndSeeds, BankWritebackProperty,
                         ::testing::Combine(::testing::Values(1, 2, 8),
                                            ::testing::Values(11u, 29u)));

}  // namespace
}  // namespace cinder
