#include "layers.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

long
replayPolicy(const tt::exec::RunResult &run,
             tt::core::SchedulingPolicy &fresh, double &seconds,
             bool &matches)
{
    // Backpressure transitions, in the order the engine delivered
    // them: one per change of the admission state, at the arrival
    // that caused it.
    struct Transition
    {
        double time;
        tt::core::BackpressureState state;
        long backlog;
    };
    std::vector<Transition> transitions;
    auto state = tt::core::BackpressureState::Accept;
    for (const tt::exec::JobRecord &job : run.jobs) {
        if (job.state != state) {
            state = job.state;
            transitions.push_back(
                {job.arrival_seconds, job.state, job.backlog});
        }
    }

    long calls = 0;
    std::size_t next = 0;
    const double t0 = hostNow();
    for (const tt::core::PairSample &sample : run.samples) {
        while (next < transitions.size() &&
               transitions[next].time <= sample.end_time) {
            fresh.onBackpressure(transitions[next].time,
                                 transitions[next].state,
                                 transitions[next].backlog);
            ++next;
            ++calls;
        }
        fresh.onPairMeasured(sample);
        ++calls;
    }
    for (; next < transitions.size(); ++next, ++calls)
        fresh.onBackpressure(transitions[next].time,
                             transitions[next].state,
                             transitions[next].backlog);
    seconds += hostNow() - t0;
    // The MTLs must match exactly. A backpressure entry is stamped
    // with the engine clock at the arrival, which the sim quantizes
    // to its 1 ps tick, and the replay with the plan's arrival offset,
    // so times need only agree to well under a nanosecond.
    const auto &replayed = fresh.mtlTrace();
    matches = replayed.size() == run.mtl_trace.size();
    for (std::size_t i = 0; matches && i < replayed.size(); ++i)
        matches = replayed[i].second == run.mtl_trace[i].second &&
                  std::abs(replayed[i].first - run.mtl_trace[i].first) <
                      1e-9;
    return calls;
}

void
LayerTotals::declareAll(Report &report)
{
    static const std::pair<const char *, const char *> kMetrics[] = {
        {"workloads.build_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_req", "ratio"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.probe_event_ns", "ns"},
        {"mem.dram_reqs", "count"},
        {"mem.row_hit_rate", "frac"},
        {"mem.queue_wait_ns", "sim_ns"},
        {"mem.bus_util", "frac"},
        {"mem.llc_peak_mb", "MB"},
        {"mem.probe_req_ns", "ns"},
        {"simrt.drive_s", "s"},
        {"simrt.start_attempt_ns", "ns"},
        {"exec.attempts", "count"},
        {"exec.timer_callbacks", "count"},
        {"exec.overhead_ns_per_attempt", "ns"},
        {"exec.peak_mem_in_flight", "count"},
        {"runtime.body_frac", "frac"},
        {"runtime.worker_parks", "count"},
        {"runtime.worker_wakes", "count"},
        {"runtime.construct_s", "s"},
        {"runtime.pool4_wall_s", "s"},
        {"runtime.pool4_slowdown", "ratio"},
        {"util.concurrency.ring_peak", "count"},
        {"util.concurrency.gate_admit_failures", "count"},
        {"core.policy_calls", "count"},
        {"core.policy_ns", "ns"},
        {"core.selections", "count"},
        {"core.probe_frac", "frac"},
        {"core.final_mtl", "count"},
        {"load.admitted_frac", "frac"},
        {"load.delayed_frac", "frac"},
        {"load.shed_frac", "frac"},
        {"load.deadline_missed", "count"},
        {"load.generator_late_us", "engine_us"},
        {"obs.cp.queue_wait_us", "engine_us"},
        {"obs.cp.mem_stall_us", "engine_us"},
        {"obs.cp.compute_us", "engine_us"},
        {"obs.overhead_ns", "ns"},
        {"obs.spans_dropped", "count"},
        {"obs.trace_dropped", "count"},
        {"bench.trace_overhead_frac", "frac"},
        {"bench.reference_s", "s"},
    };
    for (const auto &[name, unit] : kMetrics)
        report.layer(name, 0.0, unit);
}

void
LayerTotals::addRun(const tt::exec::RunResult &run,
                    const tt::MetricsRegistry &metrics, int contexts,
                    long timer_callbacks, bool host)
{
    const double attempts =
        static_cast<double>(metrics.counter("runtime.tasks_done") +
                            run.task_retries);
    attempts_ += attempts;
    timer_callbacks_ += static_cast<double>(timer_callbacks);
    worker_parks_ +=
        static_cast<double>(metrics.counter("runtime.worker_parks"));
    worker_wakes_ +=
        static_cast<double>(metrics.counter("runtime.worker_wakes"));
    gate_admit_failures_ += static_cast<double>(
        metrics.counter("runtime.gate_admit_failures"));
    ring_peak_ = std::max({ring_peak_,
                           metrics.gauge("runtime.ring_peak_memory"),
                           metrics.gauge("runtime.ring_peak_compute")});
    for (const std::string &name : metrics.counterNames())
        if (name.rfind("obs.overhead.", 0) == 0)
            obs_overhead_ns_ +=
                static_cast<double>(metrics.counter(name));
    spans_dropped_ += static_cast<double>(run.spans_dropped);
    trace_dropped_ += static_cast<double>(run.trace_dropped);
    peak_mem_in_flight_ =
        std::max(peak_mem_in_flight_, run.peak_mem_in_flight);

    double body_seconds = 0.0;
    for (const tt::obs::TaskEvent &event : run.trace)
        body_seconds += event.end - event.start;
    const double capacity = static_cast<double>(contexts) * run.seconds;
    if (capacity > 0.0)
        body_frac_sum_ += body_seconds / capacity;
    ++runs_;
    if (host) {
        host_non_body_ns_ += (capacity - body_seconds) * 1e9;
        host_attempts_ += attempts;
    }
}

void
LayerTotals::addMachine(tt::cpu::SimMachine &machine)
{
    sim_events_ += static_cast<double>(machine.events().executed());
    const tt::mem::MemorySystem &mem = machine.mem();
    double util = 0.0;
    for (int c = 0; c < mem.channelCount(); ++c) {
        const tt::mem::ChannelStats &stats = mem.channel(c).stats();
        dram_reqs_ += static_cast<double>(stats.reads + stats.writes);
        row_hits_ += static_cast<double>(stats.row_hits);
        queue_wait_ns_ += static_cast<double>(stats.queue_wait_ticks) /
                          static_cast<double>(tt::sim::kTicksPerNs);
        util += mem.channel(c).busUtilisation();
    }
    bus_util_sum_ += util / std::max(1, mem.channelCount());
    llc_peak_bytes_ = std::max(
        llc_peak_bytes_,
        static_cast<double>(mem.llc().peakOccupancy()));
    ++sim_runs_;
}

void
LayerTotals::addPolicy(const tt::exec::RunResult &run, long calls,
                       double seconds)
{
    policy_calls_ += static_cast<double>(calls);
    policy_seconds_ += seconds;
    selections_ += static_cast<double>(run.policy_stats.selections);
    probe_frac_sum_ += run.monitor_overhead;
    final_mtl_sum_ +=
        run.mtl_trace.empty() ? 0.0 : run.mtl_trace.back().second;
    ++dynamic_runs_;
}

void
LayerTotals::publish(Report &report, const Tracer &tracer) const
{
    const double passes = std::max(1, passes_);
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    const double drive_s = tracer.totalSeconds("simrt.drive");
    report.layer("sim.events", sim_events_ / passes, "count");
    report.layer("sim.events_per_req", ratio(sim_events_, dram_reqs_),
                 "ratio");
    report.layer("sim.host_ns_per_event",
                 ratio(drive_s * 1e9, sim_events_), "ns");
    report.layer("mem.dram_reqs", dram_reqs_ / passes, "count");
    report.layer("mem.row_hit_rate", ratio(row_hits_, dram_reqs_),
                 "frac");
    report.layer("mem.queue_wait_ns", ratio(queue_wait_ns_, dram_reqs_),
                 "sim_ns");
    report.layer("mem.bus_util", ratio(bus_util_sum_, sim_runs_), "frac");
    report.layer("mem.llc_peak_mb", llc_peak_bytes_ / (1024.0 * 1024.0),
                 "MB");
    report.layer("simrt.drive_s", drive_s / passes, "s");
    report.layer("simrt.start_attempt_ns",
                 ratio(tracer.totalSeconds("simrt.startAttempt") * 1e9,
                       static_cast<double>(
                           tracer.count("simrt.startAttempt"))),
                 "ns");

    report.layer("exec.attempts", attempts_ / passes, "count");
    report.layer("exec.timer_callbacks", timer_callbacks_ / passes,
                 "count");
    report.layer("exec.overhead_ns_per_attempt",
                 ratio(host_non_body_ns_, host_attempts_), "ns");
    report.layer("exec.peak_mem_in_flight", peak_mem_in_flight_,
                 "count");
    report.layer("runtime.body_frac", ratio(body_frac_sum_, runs_),
                 "frac");
    report.layer("runtime.worker_parks", worker_parks_ / passes, "count");
    report.layer("runtime.worker_wakes", worker_wakes_ / passes, "count");
    const double constructs =
        static_cast<double>(tracer.count("simrt.construct") +
                            tracer.count("runtime.construct"));
    report.layer("runtime.construct_s",
                 ratio(tracer.totalSeconds("simrt.construct") +
                           tracer.totalSeconds("runtime.construct"),
                       constructs),
                 "s");
    report.layer("util.concurrency.ring_peak", ring_peak_, "count");
    report.layer("util.concurrency.gate_admit_failures",
                 gate_admit_failures_ / passes, "count");

    report.layer("core.policy_calls", policy_calls_ / passes, "count");
    report.layer("core.policy_ns",
                 ratio(policy_seconds_ * 1e9, policy_calls_), "ns");
    report.layer("core.selections", selections_ / passes, "count");
    report.layer("core.probe_frac", ratio(probe_frac_sum_, dynamic_runs_),
                 "frac");
    report.layer("core.final_mtl", ratio(final_mtl_sum_, dynamic_runs_),
                 "count");

    report.layer("obs.overhead_ns", obs_overhead_ns_ / passes, "ns");
    report.layer("obs.spans_dropped", spans_dropped_ / passes, "count");
    report.layer("obs.trace_dropped", trace_dropped_ / passes, "count");
}

} // namespace perfbench
