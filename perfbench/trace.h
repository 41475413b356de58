// The traced pass: times the public calls into each layer from outside the
// program, keeping every span in memory (Spans) until the run ends.
#pragma once

#include <cstdint>

#include "perfbench/bench.h"
#include "src/sim/simulator.h"
#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_sink.h"

namespace perfbench {

inline const cinder::Duration kBatch = cinder::Duration::Millis(10);

// Forwards the stream to `inner` and times sink delivery per frame, from the
// first drained record of a frame to the return of the inner OnFrame.
// Per-record clock reads would cost more than the fold they time. Plan-table
// records do not start the clock: a plan rebuild hands them to the sinks
// directly, long before the frame's ring drain.
class TimingSink final : public cinder::TraceSink {
 public:
  TimingSink(cinder::TraceSink* inner, Spans* spans) : inner_(inner), spans_(spans) {}

  void OnAttach(const cinder::TraceDomain& d) override { inner_->OnAttach(d); }
  void OnRecord(const cinder::TraceRecord& r) override {
    using cinder::RecordKind;
    const auto kind = static_cast<RecordKind>(r.kind);
    const bool plan_table = kind == RecordKind::kPlanShard || kind == RecordKind::kPlanTap ||
                            kind == RecordKind::kPlanReserve;
    if (!in_frame_ && !plan_table) {
      in_frame_ = true;
      frame_start_ = NowNs();
    }
    if (kind != RecordKind::kFrameMark) {
      ++spans_->records;
    }
    inner_->OnRecord(r);
  }
  void OnFrame(uint64_t seq, const cinder::TraceDomain& d) override {
    inner_->OnFrame(seq, d);
    spans_->deliver_ns.push_back(static_cast<double>(NowNs() - frame_start_));
    ++spans_->frames;
    in_frame_ = false;
  }
  void OnDetach(const cinder::TraceDomain& d) override { inner_->OnDetach(d); }

 private:
  cinder::TraceSink* inner_;
  Spans* spans_;
  bool in_frame_ = false;
  int64_t frame_start_ = 0;
};

// Runs `sim` to `end`, which must sit on the 10 ms batch grid, as
// alternating timed Simulator::Run(10 ms) calls. The simulator must have been
// built with SimConfig::tap_batch past the horizon, so the only tap batches
// are the TapEngine::RunBatch(10 ms) calls made here. Each one runs from a
// callback scheduled at the head of its run, just before the Run call: it
// therefore fires after every callback already due at that instant and
// before the first quantum, which is exactly where the simulator's own batch
// would have run, so the traced run computes the untraced run's results.
// `phones` is the number of simulated devices, for per-phone-second rates.
// `child_ns` accumulates time the caller's own timed callbacks (churn) spent
// inside the current run; it is subtracted from the stretch's self time.
inline void RunTraced(cinder::Simulator& sim, cinder::SimTime end, int phones, Spans* s,
                      double* child_ns) {
  uint64_t last_epoch = UINT64_MAX;  // The first batch always builds the plan.
  double batch_in_run = 0.0;
  auto batch = [&] {
    cinder::Kernel& k = sim.kernel();
    const bool rebuild = k.mutation_epoch() != last_epoch;
    const int64_t t0 = NowNs();
    sim.taps().RunBatch(kBatch);
    const auto ns = static_cast<double>(NowNs() - t0);
    (rebuild ? s->rebuild_ns : s->batch_ns).push_back(ns);
    last_epoch = k.mutation_epoch();
    batch_in_run = ns;
  };
  const int64_t loop0 = NowNs();
  const double cpu0 = CpuSeconds();
  while (sim.now() < end) {
    if (sim.now() > cinder::SimTime::Zero()) {
      sim.ScheduleAt(sim.now(), [&batch] { batch(); });
    }
    batch_in_run = 0.0;
    *child_ns = 0.0;
    const int64_t t0 = NowNs();
    sim.Run(kBatch);
    const auto run = static_cast<double>(NowNs() - t0);
    s->run_ns.push_back(run);
    s->stretch_ns.push_back(run - batch_in_run - *child_ns);
  }
  s->loop_ns += static_cast<double>(NowNs() - loop0);
  s->cpu_s += CpuSeconds() - cpu0;
  s->sim_seconds += end.seconds_f();
  s->phone_seconds += phones * end.seconds_f();
}

}  // namespace perfbench
