// The metric sets, computed the same way for every workload: end to end from
// the untraced simulations, per layer from the spans of the traced passes.
#include <cstdio>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {

void AddEndToEnd(Result* res, double rate_w4, double rate_w0, const std::vector<double>& setup_s) {
  res->Add("phone_s_per_s_w4", rate_w4, "phone-s/s");
  res->Add("phone_s_per_s_w0", rate_w0, "phone-s/s");
  res->Add("setup_s", Quantile(setup_s, 1.0 - kFastQuantile), "s");
  res->Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("info setup_s median %.6g over %zu set-ups\n", Median(setup_s), setup_s.size());
}

void AddPlanStats(SchedPlanStats* a, const SchedPlanStats& b) {
  a->plans_built += b.plans_built;
  a->quanta_planned += b.quanta_planned;
  a->quanta_replayed += b.quanta_replayed;
  a->quanta_discarded += b.quanta_discarded;
  a->plans_cut += b.plans_cut;
  a->single_step_picks += b.single_step_picks;
}

void AddLayerMetrics(Result* res, const LayerPasses& p, const LayerCounts& c) {
  const Spans& base = *p.base;
  const std::vector<double> batches = base.AllBatches();
  res->Add("core.tap.batch_us.p50", Us(Median(batches)), "us");
  res->Add("core.tap.batch_us.p99", Us(Quantile(batches, 0.99)), "us");
  res->Add("core.tap.batch_us_w4.p50", Us(Median(p.w4->AllBatches())), "us");
  res->Add("core.tap.rebuild_us.p50", Us(Median(base.rebuild_ns)), "us");
  res->Add("core.tap.rebuilds", static_cast<double>(base.rebuild_ns.size()), "count");

  res->Add("exec.partition_us", Us(Median(c.partition_ns)), "us");
  res->Add("exec.shards", c.shards, "count");
  // Counted from the lossless pass, so no dispatch or busy record is lost.
  if (c.lossless_dropped > 0) {
    std::printf("info the lossless pass dropped %llu records: exec.dispatches_per_batch and "
                "exec.busy_share undercount\n",
                static_cast<unsigned long long>(c.lossless_dropped));
  }
  res->Add("exec.dispatches_per_batch",
           Ratio(static_cast<double>(c.dispatches), static_cast<double>(c.lossless_batches)),
           "count");
  res->Add("exec.busy_share",
           Ratio(static_cast<double>(c.busy_ns), 4.0 * c.lossless_batch_ns), "share");
  res->Add("exec.cpu_ms_per_phone_s_w4", Ratio(p.w4->cpu_s * 1e3, p.w4->phone_seconds),
           "ms/phone-s");

  const Spans& on = base;  // Telemetry is on in the workload's configuration.
  res->Add("telemetry.deliver_us.p50", Us(Median(on.deliver_ns)), "us");
  res->Add("telemetry.deliver_us.p99", Us(Quantile(on.deliver_ns, 0.99)), "us");
  res->Add("telemetry.batch_overhead_us",
           Us(Median(on.AllBatches()) - Median(p.telem_off->AllBatches())), "us");
  const auto frames = static_cast<double>(on.frames);
  res->Add("telemetry.records_per_batch", Ratio(static_cast<double>(on.records), frames),
           "count");
  res->Add("telemetry.dropped_per_batch", Ratio(static_cast<double>(on.ring_dropped), frames),
           "count");
  res->Add("telemetry.dropped_per_batch_w4",
           Ratio(static_cast<double>(p.w4->ring_dropped), static_cast<double>(p.w4->frames)),
           "count");
  res->Add("telemetry.record_loss",
           Ratio(static_cast<double>(on.ring_dropped),
                 static_cast<double>(on.records + on.ring_dropped)),
           "share");

  res->Add("sim.stretch_us.p50", Us(Median(base.stretch_ns)), "us");
  res->Add("sim.stretch_us.p99", Us(Quantile(base.stretch_ns, 0.99)), "us");
  const SchedPlanStats& ps = c.plan;
  res->Add("core.sched.plan_hit",
           Ratio(static_cast<double>(ps.quanta_replayed),
                 static_cast<double>(ps.quanta_replayed + ps.single_step_picks)),
           "share");
  res->Add("core.sched.plan_waste",
           Ratio(static_cast<double>(ps.quanta_discarded), static_cast<double>(ps.quanta_planned)),
           "share");
  res->Add("core.sched.plans_per_sim_s",
           Ratio(static_cast<double>(ps.plans_built), base.sim_seconds), "1/s");
  res->Add("core.sched.noplan_stretch_us.p50", Us(Median(p.no_plans->stretch_ns)), "us");

  res->Add("histar.phone_build_us.p50", Us(Median(base.build_ns)), "us");
  res->Add("histar.phone_delete_us.p50", Us(Median(base.delete_ns)), "us");

  // Where the traced wall time went, and what tracing cost.
  const double loop = base.loop_ns;
  res->Add("trace.coverage", Ratio(Sum(base.run_ns), loop), "share");
  res->Add("trace.batch_share", Ratio(Sum(batches), loop), "share");
  res->Add("trace.rebuild_share", Ratio(Sum(base.rebuild_ns), loop), "share");
  res->Add("trace.stretch_share", Ratio(Sum(base.stretch_ns), loop), "share");
  res->Add("trace.deliver_share", Ratio(Sum(on.deliver_ns), on.loop_ns), "share");
  res->Add("trace.overhead", Ratio(loop, base.untraced_ns), "ratio");
}

}  // namespace perfbench
