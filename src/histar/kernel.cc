#include "src/histar/kernel.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/reserve.h"

namespace cinder {

Kernel::Kernel() {
  // The root container is the only object without a parent; it anchors the
  // container hierarchy and, in Cinder, holds the battery root reserve.
  ObjectId id = next_id_++;
  InsertObject(id, std::make_unique<Container>(id, Label(Level::k1), "root"));
  root_id_ = id;
}

Kernel::~Kernel() = default;

void Kernel::InsertObject(ObjectId id, std::unique_ptr<KernelObject> obj) {
  obj->AttachEpochs(&epochs_);
  // Only reserves and taps shape the connectivity graph (tap endpoints are
  // immutable ids); thread/container churn must not invalidate partitions.
  if (obj->type() == ObjectType::kReserve || obj->type() == ObjectType::kTap) {
    ++topology_epoch_;
  }
  // Wire the scheduler-plan invalidation epochs: threads report run-state /
  // reserve-attachment changes, reserves report out-of-band level mutations.
  if (obj->type() == ObjectType::kThread) {
    static_cast<Thread*>(obj.get())->AttachSchedEpoch(&sched_epoch_);
  } else if (obj->type() == ObjectType::kReserve) {
    static_cast<Reserve*>(obj.get())->AttachOpEpoch(&reserve_op_epoch_);
  }
  by_type_[static_cast<size_t>(obj->type())].push_back(id);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(obj);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(obj));
    slot_generation_.push_back(0);
  }
  const uint64_t page = id >> kIdPageBits;
  if (page >= id_pages_.size()) {
    id_pages_.resize(page + 1);
  }
  if (id_pages_[page] == nullptr) {
    id_pages_[page] = std::make_unique<IdPage>();
    id_pages_[page]->slot.fill(kNoSlot);
  }
  id_pages_[page]->slot[id & (kIdPageSize - 1)] = slot;
  ++id_pages_[page]->live;
  ++epochs_.mutation;
}

void Kernel::EraseObject(ObjectId id) {
  const uint32_t slot = SlotOf(id);
  const ObjectType type = slots_[slot]->type();
  if (type == ObjectType::kReserve || type == ObjectType::kTap) {
    ++topology_epoch_;
  }
  auto& index = by_type_[static_cast<size_t>(type)];
  auto it = std::lower_bound(index.begin(), index.end(), id);
  if (it != index.end() && *it == id) {
    index.erase(it);
  }
  slots_[slot].reset();
  // Recycling the slot invalidates every outstanding ObjectHandle to it.
  ++slot_generation_[slot];
  free_slots_.push_back(slot);
  // Ids are never reused, so the entry goes dead; the page is reclaimed once
  // every entry in it is dead. The tail page (where the next monotonic id
  // will land) is deliberately kept even when empty — freeing it would make
  // a create/delete loop alloc and memset a page per iteration.
  const uint64_t page = id >> kIdPageBits;
  id_pages_[page]->slot[id & (kIdPageSize - 1)] = kNoSlot;
  if (--id_pages_[page]->live == 0 && page != (next_id_ >> kIdPageBits)) {
    id_pages_[page].reset();
  }
  ++epochs_.mutation;
}

Status Kernel::Delete(ObjectId id) {
  KernelObject* obj = Lookup(id);
  if (obj == nullptr) {
    return Status::kErrNotFound;
  }
  if (id == root_id_) {
    return Status::kErrInvalidArg;
  }
  // Unlink from the parent container first.
  if (Container* parent = LookupTyped<Container>(obj->parent()); parent != nullptr) {
    parent->RemoveChild(id);
  }
  std::vector<DeletedObject> deleted;
  DeleteRecursive(id, &deleted);
  // Notify observers only after the whole subtree is gone so they never see a
  // half-deleted hierarchy.
  for (const DeletedObject& d : deleted) {
    for (KernelObserver* obs : observers_) {
      obs->OnObjectDeleted(d.id, d.type, d.handle);
    }
  }
  total_deleted_ += static_cast<int64_t>(deleted.size());
  return Status::kOk;
}

void Kernel::DeleteRecursive(ObjectId id, std::vector<DeletedObject>* deleted) {
  KernelObject* obj = Lookup(id);
  if (obj == nullptr) {
    return;
  }
  if (obj->type() == ObjectType::kContainer) {
    // Copy: children mutate as we delete.
    std::vector<ObjectId> children = static_cast<Container*>(obj)->children();
    for (ObjectId c : children) {
      DeleteRecursive(c, deleted);
    }
  }
  const uint32_t slot = SlotOf(id);
  deleted->push_back({id, obj->type(), ObjectHandle{slot, slot_generation_[slot]}});
  EraseObject(id);
}

Status Kernel::Move(ObjectId id, ObjectId new_parent) {
  KernelObject* obj = Lookup(id);
  if (obj == nullptr) {
    return Status::kErrNotFound;
  }
  Container* np = LookupTyped<Container>(new_parent);
  if (np == nullptr) {
    return Status::kErrWrongType;
  }
  if (np->QuotaExceeded()) {
    return Status::kErrExhausted;
  }
  // Reject cycles: new_parent must not live beneath obj.
  for (ObjectId cur = new_parent; cur != kInvalidObjectId;) {
    if (cur == id) {
      return Status::kErrInvalidArg;
    }
    const KernelObject* c = Lookup(cur);
    cur = c == nullptr ? kInvalidObjectId : c->parent();
  }
  if (Container* old = LookupTyped<Container>(obj->parent()); old != nullptr) {
    old->RemoveChild(id);
  }
  np->AddChild(id);
  obj->set_parent(new_parent);
  // No topology bump: reparenting moves an object in the container tree but
  // tap endpoints are ids, so reserve/tap connectivity is unchanged.
  ++epochs_.mutation;
  return Status::kOk;
}

GateReply Kernel::GateCall(Thread& caller, ObjectId gate_id, const GateMessage& msg) {
  Gate* gate = LookupTyped<Gate>(gate_id);
  GateReply reply;
  if (gate == nullptr) {
    reply.status = Status::kErrNotFound;
    return reply;
  }
  // Entering a gate requires the right to observe it (you must be able to
  // name the entry point); the gate's own label guards who may call.
  if (!CanObserve(caller, *gate)) {
    reply.status = Status::kErrPermission;
    return reply;
  }
  if (!gate->has_handler()) {
    reply.status = Status::kErrBadState;
    return reply;
  }
  gate->IncrementCallCount();

  // The calling thread enters the server's address space with the gate's
  // embedded privileges added — and crucially keeps its own active reserve,
  // so the server's work is billed to the caller.
  const ObjectId saved_domain = caller.current_domain();
  const CategorySet saved_privs = caller.privileges();
  caller.set_current_domain(gate->target_address_space());
  *caller.mutable_privileges() = saved_privs.Union(gate->granted_privileges());

  reply = gate->handler()(caller, msg);

  *caller.mutable_privileges() = saved_privs;
  caller.set_current_domain(saved_domain);
  return reply;
}

void Kernel::RemoveObserver(KernelObserver* obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), obs), observers_.end());
}

}  // namespace cinder
