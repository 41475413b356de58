#include "src/exec/shard_executor.h"

#include "src/telemetry/trace_domain.h"

namespace cinder {

thread_local uint32_t ShardExecutor::tls_worker_slot_ = 0;

ShardExecutor::ShardExecutor(int workers) : workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(workers_ - 1);
  for (int i = 0; i < workers_ - 1; ++i) {
    threads_.emplace_back([this, i] { WorkerMain(static_cast<uint32_t>(i) + 1); });
  }
}

ShardExecutor::~ShardExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ShardExecutor::DrainTickets(ShardTask* task, const ShardTicket* tickets, uint32_t n,
                                 uint64_t generation) {
  // The ticket packs (generation << 32 | next_ticket). Claiming via CAS (not
  // fetch_add) keeps a straggler from a finished batch from blindly consuming
  // a ticket index that already belongs to the next batch: a stale
  // generation tag makes it back off without touching the counter.
  const uint64_t gen_tag = generation << 32;
  // The dispatch ring (this thread's own writer slot) is looked up only after
  // the first successful claim: a straggler that finds the batch already
  // drained never touches the domain, which may be gone once the batch's
  // caller has returned.
  TraceDomain* const td = telemetry_;
  TraceRing* trace = nullptr;
  bool claimed = false;
  const uint16_t slot_tag = static_cast<uint16_t>(tls_worker_slot_) << 8;
  uint64_t t = ticket_.load(std::memory_order_relaxed);
  while (true) {
    if ((t & ~uint64_t{0xffffffff}) != gen_tag) {
      return;  // A newer batch owns the ticket.
    }
    const auto i = static_cast<uint32_t>(t);
    if (i >= n) {
      return;  // All tickets handed out.
    }
    if (!ticket_.compare_exchange_weak(t, t + 1, std::memory_order_relaxed)) {
      continue;  // Lost the claim; t was reloaded.
    }
    if (!claimed) {
      claimed = true;
      trace = td != nullptr && td->on(RecordKind::kDispatch) ? td->ring(tls_worker_slot_) : nullptr;
    }
    const ShardTicket& tk = tickets[i];
    if (trace != nullptr) {
      trace->Emit(td->time_us(), RecordKind::kDispatch, tk.shard, slot_tag, 0, 0, tk.shards);
    }
    task->RunTicket(tk);
    // acq_rel so the waiter's acquire load of done_tickets_ orders every
    // ticket's writes before the caller's merge step.
    if (done_tickets_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
    t = ticket_.load(std::memory_order_relaxed);
  }
}

void ShardExecutor::WorkerMain(uint32_t slot) {
  tls_worker_slot_ = slot;
  uint64_t seen_generation = 0;
  while (true) {
    ShardTask* task;
    const ShardTicket* tickets;
    uint32_t n;
    uint64_t generation;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) {
        return;
      }
      // Read the batch under the lock: even a worker that slept through a
      // whole batch always acts on the current one, never a stale one.
      seen_generation = generation_;
      generation = generation_;
      task = task_;
      tickets = tickets_;
      n = n_tickets_;
    }
    DrainTickets(task, tickets, n, generation);
  }
}

void ShardExecutor::RunTickets(ShardTask* task, const ShardTicket* tickets, uint32_t n) {
  if (threads_.empty() || n <= 1) {
    for (uint32_t i = 0; i < n; ++i) {
      task->RunTicket(tickets[i]);
    }
    return;
  }
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lk(mu_);
    task_ = task;
    tickets_ = tickets;
    n_tickets_ = n;
    generation = ++generation_;
    done_tickets_.store(0, std::memory_order_relaxed);
    ticket_.store(generation << 32, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  // The caller is worker zero.
  DrainTickets(task, tickets, n, generation);
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return done_tickets_.load(std::memory_order_acquire) == n; });
}

}  // namespace cinder
