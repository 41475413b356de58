#include "src/histar/kernel.h"

#include <gtest/gtest.h>

#include "src/core/reserve.h"
#include "src/core/tap.h"

namespace cinder {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  Kernel k_;
};

TEST_F(KernelTest, RootContainerExists) {
  ASSERT_NE(k_.root_container(), nullptr);
  EXPECT_EQ(k_.root_container()->type(), ObjectType::kContainer);
  EXPECT_EQ(k_.object_count(), 1u);
}

TEST_F(KernelTest, CreateAndLookup) {
  Container* c = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "home");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(k_.Lookup(c->id()), c);
  EXPECT_EQ(k_.LookupTyped<Container>(c->id()), c);
  EXPECT_EQ(k_.LookupTyped<Thread>(c->id()), nullptr);  // Wrong type.
  EXPECT_EQ(c->parent(), k_.root_container_id());
  EXPECT_TRUE(k_.root_container()->HasChild(c->id()));
}

TEST_F(KernelTest, CreateInNonContainerFails) {
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  EXPECT_EQ(k_.Create<Container>(t->id(), Label(Level::k1), "x"), nullptr);
  EXPECT_EQ(k_.Create<Container>(99999, Label(Level::k1), "x"), nullptr);
}

TEST_F(KernelTest, DeleteSimpleObject) {
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  ObjectId id = t->id();
  EXPECT_EQ(k_.Delete(id), Status::kOk);
  EXPECT_EQ(k_.Lookup(id), nullptr);
  EXPECT_FALSE(k_.root_container()->HasChild(id));
  EXPECT_EQ(k_.Delete(id), Status::kErrNotFound);
}

TEST_F(KernelTest, DeleteCascadesThroughContainers) {
  Container* a = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "a");
  Container* b = k_.Create<Container>(a->id(), Label(Level::k1), "b");
  Thread* t = k_.Create<Thread>(b->id(), Label(Level::k1), "t");
  Segment* s = k_.Create<Segment>(b->id(), Label(Level::k1), "s", 16);
  ObjectId ids[] = {a->id(), b->id(), t->id(), s->id()};
  EXPECT_EQ(k_.Delete(a->id()), Status::kOk);
  for (ObjectId id : ids) {
    EXPECT_EQ(k_.Lookup(id), nullptr);
  }
  EXPECT_EQ(k_.object_count(), 1u);  // Only root remains.
}

TEST_F(KernelTest, CannotDeleteRoot) {
  EXPECT_EQ(k_.Delete(k_.root_container_id()), Status::kErrInvalidArg);
}

TEST_F(KernelTest, MoveReparents) {
  Container* a = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "a");
  Container* b = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "b");
  Thread* t = k_.Create<Thread>(a->id(), Label(Level::k1), "t");
  EXPECT_EQ(k_.Move(t->id(), b->id()), Status::kOk);
  EXPECT_FALSE(a->HasChild(t->id()));
  EXPECT_TRUE(b->HasChild(t->id()));
  EXPECT_EQ(t->parent(), b->id());
}

TEST_F(KernelTest, MoveRejectsCycles) {
  Container* a = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "a");
  Container* b = k_.Create<Container>(a->id(), Label(Level::k1), "b");
  EXPECT_EQ(k_.Move(a->id(), b->id()), Status::kErrInvalidArg);
  EXPECT_EQ(k_.Move(a->id(), a->id()), Status::kErrInvalidArg);
}

TEST_F(KernelTest, ChildQuotaEnforced) {
  Container* a = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "a");
  a->set_child_quota(2);
  EXPECT_NE(k_.Create<Thread>(a->id(), Label(Level::k1), "t1"), nullptr);
  EXPECT_NE(k_.Create<Thread>(a->id(), Label(Level::k1), "t2"), nullptr);
  EXPECT_EQ(k_.Create<Thread>(a->id(), Label(Level::k1), "t3"), nullptr);
}

TEST_F(KernelTest, ObjectsOfTypeSortedById) {
  k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t1");
  k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "c");
  k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t2");
  auto threads = k_.ObjectsOfType(ObjectType::kThread);
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_LT(threads[0], threads[1]);
}

class RecordingObserver : public KernelObserver {
 public:
  void OnObjectDeleted(ObjectId id, ObjectType type, ObjectHandle /*handle*/) override {
    deleted.emplace_back(id, type);
  }
  std::vector<std::pair<ObjectId, ObjectType>> deleted;
};

class RecordingHandleObserver : public KernelObserver {
 public:
  void OnObjectDeleted(ObjectId /*id*/, ObjectType /*type*/, ObjectHandle handle) override {
    handles.push_back(handle);
  }
  std::vector<ObjectHandle> handles;
};

TEST_F(KernelTest, ObserverSeesCascadedDeletes) {
  RecordingObserver obs;
  k_.AddObserver(&obs);
  Container* a = k_.Create<Container>(k_.root_container_id(), Label(Level::k1), "a");
  Thread* t = k_.Create<Thread>(a->id(), Label(Level::k1), "t");
  ObjectId tid = t->id();
  ObjectId aid = a->id();
  EXPECT_EQ(k_.Delete(aid), Status::kOk);
  ASSERT_EQ(obs.deleted.size(), 2u);
  // Leaf first, container last.
  EXPECT_EQ(obs.deleted[0].first, tid);
  EXPECT_EQ(obs.deleted[1].first, aid);
  k_.RemoveObserver(&obs);
}

TEST_F(KernelTest, ObserverGetsTheDeletedObjectsSlotHandle) {
  RecordingHandleObserver obs;
  k_.AddObserver(&obs);
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  const ObjectHandle live = k_.HandleOf(t->id());
  ASSERT_EQ(k_.Delete(t->id()), Status::kOk);
  ASSERT_EQ(obs.handles.size(), 1u);
  // The handle as it was: same slot and generation, stale now.
  EXPECT_EQ(obs.handles[0], live);
  EXPECT_EQ(k_.Lookup(obs.handles[0]), nullptr);
  k_.RemoveObserver(&obs);
}

TEST_F(KernelTest, AccessEpochMovesOnlyOnLabelCredentialAndInvalidate) {
  const uint64_t start = k_.access_epoch();
  Reserve* r = k_.Create<Reserve>(k_.root_container_id(), Label(Level::k1), "r");
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  ASSERT_EQ(k_.Delete(t->id()), Status::kOk);
  EXPECT_EQ(k_.access_epoch(), start);  // Creates and deletes: no.
  const uint64_t mutation = k_.mutation_epoch();
  r->set_label(Label(Level::k1));
  EXPECT_EQ(k_.access_epoch(), start + 1);
  EXPECT_EQ(k_.mutation_epoch(), mutation + 1);
  Tap* tap = k_.Create<Tap>(k_.root_container_id(), Label(Level::k1), "tap", r->id(), r->id());
  tap->EmbedCredentials(Label(Level::k1), CategorySet());
  EXPECT_EQ(k_.access_epoch(), start + 2);
  k_.InvalidateCaches();
  EXPECT_EQ(k_.access_epoch(), start + 3);
}

TEST_F(KernelTest, LabelChecksOnThreads) {
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  Reserve* secret =
      k_.Create<Reserve>(k_.root_container_id(), Label(Level::k1), "r", ResourceKind::kEnergy);
  Label l(Level::k1);
  Category cat = k_.categories().Allocate();
  l.Set(cat, Level::k3);
  secret->set_label(l);
  EXPECT_FALSE(k_.CanObserve(*t, *secret));
  EXPECT_FALSE(k_.CanUse(*t, *secret));
  t->GrantPrivilege(cat);
  EXPECT_TRUE(k_.CanObserve(*t, *secret));
  EXPECT_TRUE(k_.CanUse(*t, *secret));
}

TEST_F(KernelTest, SegmentReadWrite) {
  Segment* s = k_.Create<Segment>(k_.root_container_id(), Label(Level::k1), "s", 8);
  uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_EQ(s->Write(2, data, 4), Status::kOk);
  uint8_t out[4] = {0, 0, 0, 0};
  EXPECT_EQ(s->Read(2, out, 4), Status::kOk);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(s->Write(6, data, 4), Status::kErrOutOfRange);
  EXPECT_EQ(s->Read(6, out, 4), Status::kErrOutOfRange);
}

TEST_F(KernelTest, AddressSpaceMapping) {
  AddressSpace* as = k_.Create<AddressSpace>(k_.root_container_id(), Label(Level::k1), "as");
  Segment* s = k_.Create<Segment>(k_.root_container_id(), Label(Level::k1), "s", 8);
  as->MapSegment(s->id());
  EXPECT_TRUE(as->HasSegment(s->id()));
  as->UnmapSegment(s->id());
  EXPECT_FALSE(as->HasSegment(s->id()));
}

TEST_F(KernelTest, CreationCounters) {
  EXPECT_EQ(k_.total_deleted(), 0);
  Thread* t = k_.Create<Thread>(k_.root_container_id(), Label(Level::k1), "t");
  (void)k_.Delete(t->id());
  EXPECT_EQ(k_.total_deleted(), 1);
}

}  // namespace
}  // namespace cinder
