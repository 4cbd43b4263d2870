/**
 * @file
 * ttsim: command-line driver for the thread-throttling simulator
 * and the real-thread host runtime.
 *
 * Runs one workload under one scheduling policy -- on a simulated
 * machine configuration, or with --host on a real std::thread worker
 * pool -- and prints the measurements; the one-stop tool for
 * exploring the design space outside the canned benches. The run
 * flags are parsed into a RunSpec (tools/run_spec.hh) shared with
 * ttreport; both backends report through the same path.
 *
 *   ttsim --workload synthetic --ratio 0.5 --policy dynamic
 *   ttsim --workload streamcluster --dim 36 --policy offline
 *   ttsim --workload sift --machine 2dimm-smt --policy static --mtl 2
 *   ttsim --workload dft --policy online --window 8 --trace
 *   ttsim --host --threads 4 --policy dynamic \
 *         --trace-out trace.json --metrics-out metrics.json
 *
 * Flags:
 *   --workload   synthetic | dft | streamcluster | sift |
 *                stencil | histogram | phased           [synthetic]
 *   --machine    1dimm | 2dimm | 2dimm-smt | power7       [1dimm]
 *   --policy     conventional | static | dynamic | online |
 *                offline                                  [dynamic]
 *   --mtl        static MTL value                         [1]
 *   --window     monitoring window W                      [16]
 *   --hysteresis IdleBound hysteresis (dynamic)           [0]
 *   --ratio      synthetic T_m1/T_c                       [0.5]
 *   --footprint-kb  synthetic per-task footprint          [512]
 *   --pairs      synthetic/histogram pairs, or per phase   [128]
 *   --dim        streamcluster input dimension            [128]
 *   --host       run on real threads (synthetic workload only)
 *   --threads    host worker threads                      [4]
 *   --count      host compute-loop repetitions per task   [8]
 *   --no-pin     host mode: skip CPU-affinity pinning
 *   --trace      print the full schedule trace (sim only)
 *   --trace-out FILE    write the schedule as Chrome trace events
 *                       (load in chrome://tracing or Perfetto);
 *                       written for failed runs too
 *   --metrics-out FILE  write the run's metrics registry as JSON
 *   --metrics-summary   print the metrics registry as a table
 *   --health            enable the streaming health detectors
 *                       (obs/health.hh): alert edges land in the
 *                       Chrome trace and obs.alerts_* metrics, and
 *                       a one-line summary prints after the run
 *   --perf-counters     attach hardware counters to every task
 *                       attempt (perf_event_open with --host,
 *                       synthesized from the memory model otherwise)
 *                       and print the run aggregates; if the host
 *                       denies perf access the run degrades to the
 *                       null provider, sets runtime.perf_unavailable
 *                       and still exits 0
 *   --timeseries-out FILE     write periodic run snapshots as JSONL
 *                             (one row per sampling interval; sim
 *                             time in the simulator, wall time with
 *                             --host -- see obs/timeseries.hh)
 *   --timeseries-interval-us US  sampling interval           [100]
 *   --live-metrics PATH  expose the metrics registry live, in
 *                        OpenMetrics text format, while the run is
 *                        in flight: with --host a Unix-domain socket
 *                        at PATH served by a background thread (each
 *                        connection gets one snapshot); on the
 *                        simulator a file at PATH rewritten at each
 *                        simulated interval. Poll either with ttstat.
 *   --live-interval-us US  sim snapshot interval          [100000]
 *   --quiet      suppress the header
 *
 * Open-loop arrivals (robustness extension; see load/arrival.hh and
 * docs/robustness.md). With --arrival-rate the run becomes open-loop:
 * a seeded generator injects the workload's job pairs at its own pace
 * -- deterministic simulated offsets in the simulator, wall-clock
 * timers with --host -- through bounded admission with
 * ACCEPT/DELAY/SHED backpressure. Requires a single-phase workload.
 *   --arrival-rate R      mean offered load, jobs/second       [off]
 *   --arrival-process     poisson | bursty | diurnal       [poisson]
 *   --arrival-seed S      arrival generator seed                 [1]
 *   --slo-us US           per-job relative deadline, 0 = none    [0]
 *   --queue-cap N         admission backlog bound               [64]
 *   --priority-levels L   job priority classes (SHED keeps the
 *                         highest class only)                    [1]
 *   --service-us US       fitted T_ml for the admission
 *                         predictor T = T_ml + b*T_ql (take both
 *                         from a ttreport queue fit); 0 disables
 *                         predicted-late shedding                [0]
 *   --service-tql-us US   fitted T_ql                            [0]
 *   --slo-fail-threshold F  exit 5 when the run completes but
 *                         SLO attainment lands below F         [off]
 *
 * Fault injection (see fault/fault_plan.hh; applies to --host and
 * the simulator alike, with identical seeded decisions):
 *   --inject-seed S       fault plan seed                    [0]
 *   --inject-fail-p P     task-body exception probability    [0]
 *   --inject-straggler P  straggler probability              [0]
 *   --inject-straggler-x F  straggler latency multiplier     [4]
 *   --inject-corrupt-p P  sample-corruption probability      [0]
 *   --inject-stall-p P    worker-stall probability           [0]
 *   --inject-stall-ms MS  stall duration                     [50]
 *   --inject-arrival-burst P   probability a job's arrival gap is
 *                              compressed 8x (open-loop only) [0]
 *   --inject-deadline-storm P  probability a job's SLO is
 *                              slashed to 25% (open-loop)     [0]
 *   --max-retries N       attempts beyond the first          [3]
 *   --watchdog-ms MS      run deadline, 0 = off (wall time with
 *                         --host; simulated time otherwise)  [0]
 *
 * Exit codes: 0 success; 1 output file could not be written;
 * 2 usage error or a flag value out of range; 3 watchdog deadline
 * exceeded (run wedged); 4 a task failed after exhausting its retries;
 * 5 the run completed but SLO attainment fell below --slo-fail-threshold.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault_plan.hh"
#include "obs/analyzer.hh"
#include "obs/chrome_trace.hh"
#include "obs/live.hh"
#include "obs/perf/perf_event_provider.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "tools/run_spec.hh"
#include "util/flags.hh"
#include "util/logging.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload synthetic|dft|streamcluster|sift|"
        "stencil|histogram|phased]\n"
        "          [--machine 1dimm|2dimm|2dimm-smt|power7]\n"
        "          [--policy conventional|static|dynamic|online|"
        "offline]\n"
        "          [--mtl K] [--window W] [--hysteresis H]\n"
        "          [--ratio R] [--footprint-kb KB] [--pairs N]\n"
        "          [--dim D] [--host] [--threads T] [--count C]\n"
        "          [--no-pin] [--trace] [--trace-out FILE]\n"
        "          [--metrics-out FILE] [--metrics-summary]\n"
        "          [--health] [--perf-counters] [--quiet]\n"
        "          [--timeseries-out FILE] "
        "[--timeseries-interval-us US]\n"
        "          [--live-metrics PATH] [--live-interval-us US]\n"
        "          [--arrival-rate R] "
        "[--arrival-process poisson|bursty|diurnal]\n"
        "          [--arrival-seed S] [--slo-us US] [--queue-cap N]\n"
        "          [--priority-levels L] [--service-us US]\n"
        "          [--service-tql-us US] [--slo-fail-threshold F]\n"
        "          [--inject-seed S] [--inject-fail-p P]\n"
        "          [--inject-straggler P] [--inject-straggler-x F]\n"
        "          [--inject-corrupt-p P] [--inject-stall-p P]\n"
        "          [--inject-stall-ms MS] [--inject-arrival-burst P]\n"
        "          [--inject-deadline-storm P] [--max-retries N]\n"
        "          [--watchdog-ms MS]\n"
        "exit codes: 0 ok, 1 output write failed, 2 usage,\n"
        "            3 watchdog fired, 4 task failed after retries,\n"
        "            5 SLO attainment below --slo-fail-threshold\n",
        argv0);
    return 2;
}

/** Flush a finished output file and name it on stdout; false (with
 *  a message) on a write error. */
bool
finishFile(std::ofstream &out, const std::string &path, const char *label)
{
    // Write errors (full disk, dead pipe, revoked permissions) only
    // surface on the stream state, not the open -- check after the
    // flush or the file is silently truncated.
    out.flush();
    if (!out) {
        std::fprintf(stderr, "writing '%s' failed (disk full?)\n",
                     path.c_str());
        return false;
    }
    std::printf("%-16s%10s\n", label, path.c_str());
    return true;
}

/** Write one output file unless `path` is empty; false (with a
 *  message) on failure. */
template <typename Write>
bool
writeFile(const std::string &path, const char *label, Write write)
{
    if (path.empty())
        return true;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    write(out);
    return finishFile(out, path, label);
}

/** Print the run's aggregate hardware-counter line(s). */
void
printCounterSummary(const tt::exec::RunResult &result)
{
    if (!result.has_counters) {
        std::printf("hw counters     unavailable (ran with the null "
                    "provider; see runtime.perf_unavailable)\n");
        return;
    }
    const auto &c = result.counters;
    const auto per = [](double count, std::uint64_t total) {
        return total > 0 ? count / static_cast<double>(total) : 0.0;
    };
    const auto stalled = static_cast<double>(c.stalled_cycles);
    std::printf("llc misses      %10llu  (%.2f MPKI)\n",
                static_cast<unsigned long long>(c.llc_misses),
                per(1e3 * static_cast<double>(c.llc_misses),
                    c.instructions));
    std::printf("stalled cycles  %10llu  (%.1f%% of %llu cycles, "
                "%.1f stalls/miss)\n",
                static_cast<unsigned long long>(c.stalled_cycles),
                per(100.0 * stalled, c.cycles),
                static_cast<unsigned long long>(c.cycles),
                per(stalled, c.llc_misses));
}

} // namespace

int
main(int argc, char **argv)
{
    tt::Flags flags;
    static const std::vector<std::string> known_flags = {
        "help", "workload", "machine", "policy", "mtl", "window",
        "hysteresis", "ratio", "footprint-kb", "pairs", "dim", "host",
        "threads", "count", "no-pin", "trace", "trace-out", "metrics-out",
        "metrics-summary", "perf-counters", "quiet", "health",
        "timeseries-out", "timeseries-interval-us", "live-metrics",
        "live-interval-us", "inject-seed", "inject-fail-p",
        "inject-straggler", "inject-straggler-x", "inject-corrupt-p",
        "inject-stall-p", "inject-stall-ms", "inject-arrival-burst",
        "inject-deadline-storm", "max-retries", "watchdog-ms",
        "arrival-rate", "arrival-process", "arrival-seed", "slo-us",
        "queue-cap", "priority-levels", "service-us", "service-tql-us",
        "slo-fail-threshold",
    };
    if (!flags.parse(argc, argv) || !flags.allowOnly(known_flags) ||
        flags.has("help")) {
        if (!flags.error().empty())
            std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    const std::string trace_path = flags.getString("trace-out", "");
    const std::string metrics_path = flags.getString("metrics-out", "");
    const std::string timeseries_path =
        flags.getString("timeseries-out", "");
    const double timeseries_interval =
        flags.getDouble("timeseries-interval-us", 100.0) * 1e-6;
    const std::string live_path = flags.getString("live-metrics", "");
    const double live_interval =
        flags.getDouble("live-interval-us", 100000.0) * 1e-6;
    const double slo_fail_threshold =
        flags.getDouble("slo-fail-threshold", -1.0);
    const bool quiet = flags.getBool("quiet");
    const bool perf_counters = flags.getBool("perf-counters");
    const bool print_trace = flags.getBool("trace");
    const bool metrics_summary = flags.getBool("metrics-summary");
    const bool no_pin = flags.getBool("no-pin");
    std::string error;
    if (!timeseries_path.empty() && timeseries_interval <= 0.0)
        error = "--timeseries-interval-us must be > 0";
    else if (!live_path.empty() && live_interval <= 0.0)
        error = "--live-interval-us must be > 0";
    else if (slo_fail_threshold > 1.0)
        error = "--slo-fail-threshold must be in [0, 1]";
    // parseRunSpec also reports a non-numeric value read above.
    std::optional<tt::tools::RunSpec> spec;
    if (error.empty())
        spec = tt::tools::parseRunSpec(flags, "synthetic", &error);
    if (!spec) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    const int n = spec->contexts();

    tt::workloads::HostSynthetic host_arrays;
    const tt::stream::TaskGraph graph =
        tt::tools::buildGraph(*spec, &host_arrays);
    if (!quiet) {
        if (spec->host)
            std::printf("host threads %d", n);
        else
            std::printf("machine %s (%d contexts, %d channel(s))",
                        spec->machine_name.c_str(), n,
                        spec->machine.mem.channels);
        std::printf(", workload %s (%d pairs, %d phase(s)), policy %s\n",
                    spec->workload.c_str(), graph.pairCount(),
                    graph.phaseCount(), spec->policy.c_str());
    }

    if (spec->policy == "offline") {
        const auto search =
            tt::simrt::offlineExhaustiveSearch(spec->machine, graph);
        for (std::size_t k = 0; k < search.seconds_per_mtl.size(); ++k)
            std::printf("MTL=%-2zu %10.3f ms%s\n", k + 1,
                        search.seconds_per_mtl[k] * 1e3,
                        static_cast<int>(k) + 1 == search.best_mtl
                            ? "  <-- best"
                            : "");
        return 0;
    }

    std::optional<tt::fault::FaultPlan> fault_plan;
    const tt::fault::FaultConfig &faults = spec->faults;
    if (faults.enabled() || faults.jobFaultsEnabled()) {
        fault_plan.emplace(faults);
        if (!quiet)
            std::printf("injecting: seed %llu, fail %.3f, straggler "
                        "%.3f x%.1f, corrupt %.3f, stall %.3f "
                        "(%.0f ms)\n",
                        static_cast<unsigned long long>(faults.seed),
                        faults.fail_p, faults.straggler_p,
                        faults.straggler_factor, faults.corrupt_p,
                        faults.stall_p, faults.stall_seconds * 1e3);
    }

    // Open-loop arrivals through bounded admission.
    std::optional<tt::load::ArrivalPlan> arrival_plan;
    if (spec->arrival_rate > 0.0) {
        if (graph.phaseCount() != 1) {
            std::fprintf(stderr,
                         "error: open-loop arrivals require a "
                         "single-phase workload (got %d phases)\n",
                         graph.phaseCount());
            return 2;
        }
        arrival_plan.emplace(tt::tools::arrivalPlan(
            *spec, spec->arrival_rate, graph.pairCount(),
            fault_plan ? &*fault_plan : nullptr));
        if (!quiet)
            std::printf("open loop: %s arrivals at %.0f jobs/s, "
                        "SLO %.0f us, queue cap %d\n",
                        tt::load::arrivalProcessName(
                            spec->arrivals.process),
                        spec->arrival_rate,
                        spec->arrivals.slo_seconds * 1e6,
                        spec->admission.queue_cap);
    }

    const auto policy = tt::tools::makePolicy(*spec);
    tt::MetricsRegistry metrics;
    policy->bindMetrics(&metrics);

    std::ofstream timeseries_out;
    if (!timeseries_path.empty()) {
        timeseries_out.open(timeseries_path);
        if (!timeseries_out) {
            std::fprintf(stderr, "cannot open '%s' for writing\n",
                         timeseries_path.c_str());
            return 1;
        }
    }

    // On abnormal termination (watchdog, tt_assert) still leave the
    // metrics JSON behind for post-mortems; the hooks run before the
    // process exits.
    if (!metrics_path.empty())
        tt::registerCrashDumpHook([&metrics, metrics_path] {
            std::ofstream out(metrics_path);
            if (out)
                metrics.writeJson(out);
        });

    // The watchdog deadline is wall time on the host, where it ends
    // the process; on the simulator it counts simulated seconds and
    // fails the run in-band (the event queue's budget still bounds a
    // runaway simulation).
    tt::exec::EngineOptions options;
    options.threads = n;
    options.pin_affinity = !no_pin;
    options.metrics = &metrics;
    options.fault_plan = fault_plan ? &*fault_plan : nullptr;
    options.arrival_plan = arrival_plan ? &*arrival_plan : nullptr;
    options.admission = spec->admission;
    options.max_task_retries = spec->max_retries;
    options.watchdog_seconds = spec->watchdog_seconds;
    options.health.enabled = spec->health;
    if (!timeseries_path.empty()) {
        options.timeseries_out = &timeseries_out;
        options.timeseries_interval_seconds = timeseries_interval;
    }
    // Hardware counters: perf_event_open on the host (the null
    // provider, with one warning, if the kernel denies it); synthesized
    // from the LLC and DRAM models on the simulator, never absent.
    std::unique_ptr<tt::obs::perf::CounterProvider> counters;
    if (perf_counters && spec->host)
        counters = tt::obs::perf::makeHostCounterProvider();
    else if (perf_counters)
        counters = std::make_unique<tt::obs::perf::SimCounterProvider>();
    options.counters = counters.get();
    // Live OpenMetrics: on the host a thread serves a snapshot per
    // connection on a Unix socket (losing it degrades observability,
    // not the run); the simulator has no wall clock to serve against,
    // so the engine rewrites a file at each simulated interval.
    std::optional<tt::obs::LiveMetricsServer> live_server;
    std::optional<tt::obs::LiveFileSink> live_sink;
    if (!live_path.empty() && spec->host) {
        live_server.emplace(live_path, metrics);
        if (!live_server->start()) {
            std::fprintf(stderr,
                         "warning: live metrics endpoint '%s' "
                         "unavailable: %s\n",
                         live_path.c_str(), live_server->error().c_str());
            live_server.reset();
        } else if (!quiet) {
            std::printf("live metrics: unix socket %s (poll with "
                        "ttstat)\n",
                        live_path.c_str());
        }
    } else if (!live_path.empty()) {
        live_sink.emplace(live_path, metrics);
        options.live_sink = &*live_sink;
        options.live_interval_seconds = live_interval;
        if (!quiet)
            std::printf("live metrics: snapshot file %s every %.0f us "
                        "simulated (poll with ttstat)\n",
                        live_path.c_str(), live_interval * 1e6);
    }

    const tt::exec::RunResult result = [&] {
        if (spec->host)
            return tt::runtime::Runtime(graph, *policy, options).run();
        tt::cpu::SimMachine sim_machine(spec->machine);
        return tt::simrt::SimRuntime(sim_machine, graph, *policy, options)
            .run();
    }();
    if (live_server)
        live_server->stop();
    // One more snapshot so the file carries the backend-finalized
    // end-of-run registry (sim.* gauges land after the drain).
    if (live_sink)
        live_sink->snapshot(result.seconds);
    bool written = !live_sink || live_sink->ok();

    if (result.task_retries > 0 || result.task_failures > 0)
        std::printf("task retries    %10ld  (%ld gave up)\n",
                    result.task_retries, result.task_failures);
    if (result.failed) {
        std::fprintf(stderr, "run failed: %s\n",
                     result.failure_reason.c_str());
    } else {
        std::printf("makespan        %10.3f ms\n", result.seconds * 1e3);
        std::printf("avg T_m / T_c   %10.1f / %.1f us",
                    result.avg_tm * 1e6, result.avg_tc * 1e6);
        if (spec->host)
            std::printf("\n");
        else
            std::printf("  (ratio %.2f%%)\n"
                        "DRAM accesses   %10llu  (bus utilisation "
                        "%.1f%%)\n",
                        100.0 * result.avg_tm / result.avg_tc,
                        static_cast<unsigned long long>(
                            result.dram_accesses),
                        result.bus_utilisation * 100.0);
        std::printf("peak mem tasks  %10d\n", result.peak_mem_in_flight);
        if (perf_counters)
            printCounterSummary(result);
        if (result.pin_failures > 0)
            std::printf("pin failures    %10ld  (workers ran "
                        "unpinned)\n",
                        result.pin_failures);
        std::printf("final MTL       %10d  (%ld selections, probe "
                    "fraction %.2f%%, %ld stale pairs)\n",
                    result.mtl_trace.empty()
                        ? n
                        : result.mtl_trace.back().second,
                    result.policy_stats.selections,
                    result.monitor_overhead * 100.0,
                    result.policy_stats.stale_pairs);
        if (spec->host) {
            std::printf("trace events    %10zu  (%llu dropped)\n",
                        result.trace.size(),
                        static_cast<unsigned long long>(
                            result.trace_dropped));
            if (result.trace_dropped > 0)
                std::fprintf(stderr,
                             "warning: %llu trace events dropped (ring "
                             "full) -- attribution reports will be "
                             "incomplete; see trace.events_dropped\n",
                             static_cast<unsigned long long>(
                                 result.trace_dropped));
        }
        if (result.spans_dropped > 0)
            std::fprintf(stderr,
                         "warning: %llu job spans dropped (span "
                         "buffer full) -- critical-path attribution "
                         "will be incomplete; see obs.spans_dropped\n",
                         static_cast<unsigned long long>(
                             result.spans_dropped));
        if (result.timeseries_skipped > 0)
            std::fprintf(stderr,
                         "warning: %lld time-series rows skipped "
                         "(sampler found the scheduler busy) -- the "
                         "series has gaps; see "
                         "obs.timeseries_skipped\n",
                         static_cast<long long>(
                             result.timeseries_skipped));
        if (arrival_plan) {
            std::printf("jobs offered    %10ld  (admitted %ld, "
                        "delayed %ld, shed %ld, missed %ld)\n",
                        result.jobs_offered, result.jobs_admitted,
                        result.jobs_delayed, result.jobs_shed,
                        result.jobs_deadline_missed);
            const tt::obs::DistSummary response =
                tt::obs::summarize(result.response_seconds);
            std::printf("response time   %10.1f us p50  (p95 %.1f, "
                        "p99 %.1f)\n",
                        response.p50 * 1e6, response.p95 * 1e6,
                        response.p99 * 1e6);
            std::printf("slo attainment  %9.1f%%\n",
                        result.slo_attainment * 100.0);
        }
        if (result.health_enabled) {
            long fired = 0;
            long critical = 0;
            for (const tt::obs::AlertEvent &alert : result.alerts) {
                if (alert.edge != tt::obs::AlertEdge::Fired)
                    continue;
                ++fired;
                critical += alert.severity ==
                            tt::obs::AlertSeverity::Critical;
            }
            std::printf("health alerts   %10ld  (%ld critical, %llu "
                        "dropped)\n",
                        fired, critical,
                        static_cast<unsigned long long>(
                            result.alerts_dropped));
            if (result.critical_alert_active)
                std::fprintf(stderr,
                             "warning: a critical health alert was "
                             "still active when the run drained; see "
                             "obs.alerts_active.* in the metrics\n");
        }
    }

    // The outputs explain a failed run too, so they are written
    // before its exit code is returned.
    written &= writeFile(trace_path, "chrome trace", [&](std::ostream &out) {
        tt::obs::writeChromeTrace(tt::exec::toTraceData(graph, result), out);
    });
    written &= writeFile(metrics_path, "metrics json",
                         [&](std::ostream &out) { metrics.writeJson(out); });
    if (!timeseries_path.empty())
        written &=
            finishFile(timeseries_out, timeseries_path, "timeseries");
    if (result.failed)
        return result.watchdog_fired ? 3 : 4;
    if (!written)
        return 1;
    if (metrics_summary)
        std::printf("\n%s", metrics.summaryTable().c_str());

    if (!spec->host && print_trace) {
        std::printf("\nschedule trace (task kind pair phase context "
                    "start_us end_us mtl):\n");
        for (const auto &entry : result.trace)
            std::printf("%5d %s %5d %3d %3d %12.2f %12.2f %3d\n",
                        entry.task, entry.is_memory ? "M" : "C",
                        entry.pair, entry.phase, entry.worker,
                        entry.start * 1e6, entry.end * 1e6, entry.mtl);
    }
    if (arrival_plan && slo_fail_threshold >= 0.0 &&
        result.slo_attainment < slo_fail_threshold) {
        std::fprintf(stderr, "SLO attainment %.3f below threshold %.3f\n",
                     result.slo_attainment, slo_fail_threshold);
        return 5;
    }
    return 0;
}
