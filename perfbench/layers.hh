/**
 * @file
 * Per-layer accounting of the traced run. Counts come from the
 * modules' public accessors (EventQueue::executed(), DramChannel
 * stats, SharedLlc, RunResult, the MetricsRegistry); host times come
 * from the benchmark's own spans. Totals are summed over the traced
 * passes and published as per-pass averages.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "bench.hh"
#include "core/policy.hh"
#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "util/stats.hh"

namespace perfbench {

/**
 * Replay `run`'s recorded PairSample sequence -- interleaved by time
 * with the open-loop backpressure transitions the engine delivered --
 * into `fresh`, a newly constructed policy configured like the run's.
 * Adds the seconds spent inside the policy calls to `seconds` and
 * returns the number of calls. The policy's mtlTrace() and
 * decisions() are non-virtual, so a forwarding wrapper around the
 * live policy would change the run's output; replaying keeps the
 * measured run untouched. `matches` reports whether the replayed MTL
 * trace equals the run's.
 */
long replayPolicy(const tt::exec::RunResult &run,
                  tt::core::SchedulingPolicy &fresh, double &seconds,
                  bool &matches);

class LayerTotals
{
  public:
    /** Every per-layer metric name with its unit, all zero: each
     *  workload reports the full set, zero where a layer does no
     *  work. */
    static void declareAll(Report &report);

    /** One traced engine run. `host` selects the host-only
     *  derivation of exec.overhead_ns_per_attempt. */
    void addRun(const tt::exec::RunResult &run,
                const tt::MetricsRegistry &metrics, int contexts,
                long timer_callbacks, bool host);

    /** Simulator counters of the machine a traced run used. */
    void addMachine(tt::cpu::SimMachine &machine);

    /** A traced dynamic-policy run and its replay cost. */
    void addPolicy(const tt::exec::RunResult &run, long calls,
                   double seconds);

    void endPass() { ++passes_; }

    /** Publish the per-pass averages; span totals come from
     *  `tracer` (spans named simrt.* / runtime.*). */
    void publish(Report &report, const Tracer &tracer) const;

  private:
    int passes_ = 0;

    double attempts_ = 0.0;
    double timer_callbacks_ = 0.0;
    double worker_parks_ = 0.0;
    double worker_wakes_ = 0.0;
    double gate_admit_failures_ = 0.0;
    double ring_peak_ = 0.0;
    double obs_overhead_ns_ = 0.0;
    double spans_dropped_ = 0.0;
    double trace_dropped_ = 0.0;
    int peak_mem_in_flight_ = 0;
    double body_frac_sum_ = 0.0;
    int runs_ = 0;
    double host_non_body_ns_ = 0.0;
    double host_attempts_ = 0.0;

    double sim_events_ = 0.0;
    double dram_reqs_ = 0.0;
    double row_hits_ = 0.0;
    double queue_wait_ns_ = 0.0;
    double bus_util_sum_ = 0.0;
    double llc_peak_bytes_ = 0.0;
    int sim_runs_ = 0;

    double policy_calls_ = 0.0;
    double policy_seconds_ = 0.0;
    double selections_ = 0.0;
    double probe_frac_sum_ = 0.0;
    double final_mtl_sum_ = 0.0;
    int dynamic_runs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
