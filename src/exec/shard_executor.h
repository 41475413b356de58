// A fixed worker pool that runs a batch's tickets (the work units of the
// tap engine's plan).
//
// The pool exists so the tap engine can execute independent work concurrently
// without per-batch thread spawns or heap allocation: workers are parked on a
// condition variable between batches and pull ticket indices from an atomic
// counter during one. `workers` is the total concurrency — the calling thread
// participates, so ShardExecutor(4) spawns three pool threads and
// ShardExecutor(1) (or 0) runs everything serially in the caller with no
// threads at all.
//
// Determinism does not depend on the worker count: callers hand the pool
// tickets that touch disjoint state and do any cross-shard merging
// themselves, after RunTickets returns, in shard order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/exec/shard_task.h"

namespace cinder {

class TraceDomain;

class ShardExecutor {
 public:
  explicit ShardExecutor(int workers = 1);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  int workers() const { return workers_; }

  // Attaches a telemetry domain: every ticket claimed on the pool emits a
  // kDispatch record into the claiming worker's ring. Set from the main
  // thread with no batch in flight. The domain must have at least workers()
  // rings (the tap engine sizes it at plan rebuild) — slots without a ring
  // skip the record.
  void set_telemetry(TraceDomain* domain) { telemetry_ = domain; }

  // The calling thread's writer slot: 0 for the thread that calls
  // RunTickets (and for every thread outside any pool), i for pool thread
  // i-1. Telemetry writers use it to pick their single-writer ring. Batches
  // of distinct executors never overlap in time, so slots are unambiguous
  // per record.
  static uint32_t current_worker_slot() { return tls_worker_slot_; }

  // Runs task->RunTicket(tickets[i]) for every i in [0, n) and blocks until
  // all have finished. Workers claim tickets in array order, so the caller
  // sets the priority (the tap engine puts its largest work unit first: one
  // giant component then overlaps the many small ones instead of
  // serializing the tail of the batch). The order affects only wall-clock,
  // never results: every ticket still runs exactly once and the caller
  // merges after this returns. A single ticket, or a pool without threads,
  // runs serially in the caller. Not reentrant: one batch at a time, from
  // one thread. The array must stay alive until this returns.
  void RunTickets(ShardTask* task, const ShardTicket* tickets, uint32_t n);

 private:
  void WorkerMain(uint32_t slot);
  // The ticket-claiming loop every participating thread runs.
  void DrainTickets(ShardTask* task, const ShardTicket* tickets, uint32_t n, uint64_t generation);

  const int workers_;
  TraceDomain* telemetry_ = nullptr;
  static thread_local uint32_t tls_worker_slot_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  ShardTask* task_ = nullptr;
  const ShardTicket* tickets_ = nullptr;
  uint32_t n_tickets_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  // (generation << 32) | next_ticket_index — see DrainTickets.
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint32_t> done_tickets_{0};
};

}  // namespace cinder
