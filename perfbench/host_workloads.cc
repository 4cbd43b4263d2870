/**
 * @file
 * The workload on real threads (host_dispatch): closed loop on 1 and
 * on 4 workers, conventional and dynamic runs alternating inside each
 * repetition so both see the same machine state. The first
 * repetition warms up and is discarded.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/dynamic_policy.hh"
#include "layers.hh"
#include "obs/analyzer.hh"
#include "runtime/runtime.hh"
#include "stream/builder.hh"
#include "traced_backend.hh"
#include "util/random.hh"

namespace perfbench {

namespace {

using tt::exec::RunResult;

constexpr int kThreads = 4;
constexpr int kWindow = 16;

struct HostRun
{
    RunResult result;
    double host_seconds = 0.0; ///< run(): worker spawn to join
};

/**
 * One run on a fresh pool of `threads` workers. Untraced runs go
 * through runtime::Runtime; traced runs build the same backend and
 * engine by hand so drive() passes through the forwarding wrapper,
 * and bind a metrics registry for the per-layer counts.
 */
HostRun
hostRun(const tt::stream::TaskGraph &graph,
        tt::core::SchedulingPolicy &policy, int threads, Tracer *tracer,
        LayerTotals &layers)
{
    tt::exec::EngineOptions options;
    options.threads = threads;
    HostRun out;
    if (tracer == nullptr) {
        tt::runtime::Runtime runtime(graph, policy, options);
        const double t0 = hostNow();
        out.result = runtime.run();
        out.host_seconds = hostNow() - t0;
        return out;
    }
    tt::MetricsRegistry metrics;
    options.metrics = &metrics;
    std::optional<tt::runtime::HostThreadBackend> backend;
    std::optional<tt::exec::Engine> engine;
    {
        ScopedSpan span(tracer, "runtime.construct");
        backend.emplace(graph, options);
        engine.emplace(graph, policy, options);
    }
    TracedBackend traced(*backend, *tracer, "runtime.drive",
                         "runtime.startAttempt");
    const double t0 = hostNow();
    {
        ScopedSpan span(tracer, "runtime.run");
        out.result = engine->run(traced);
    }
    out.host_seconds = hostNow() - t0;
    layers.addRun(out.result, metrics, threads, traced.timerCallbacks(),
                  true);
    return out;
}

/** The host_dispatch bodies' data: the memory task of pair i copies
 *  value[i] into slot[i], its compute task copies slot[i] to seen[i]. */
struct DispatchData
{
    std::vector<std::uint64_t> value;
    std::vector<std::uint64_t> slot;
    std::vector<std::uint64_t> seen;
};

/** One (conventional, dynamic) pair of runs on pools of one size. */
struct RunPair
{
    std::optional<HostRun> conventional;
    std::optional<HostRun> dynamic;
};

/**
 * Each repetition runs a (conventional, dynamic) pair on one worker,
 * then one on kThreads workers, each pair in alternating order, after
 * one discarded warm-up repetition. In traced mode untraced and
 * traced repetitions alternate, and the traced ones trace the
 * kThreads runs.
 *
 * The one-worker pair gives the host-time end-to-end metrics, at the
 * reference speed; the kThreads pair gives dmtl_speedup and the
 * contention per-layer metrics (README.md says why).
 */
int
runHost(const Options &options, Report &report,
        const tt::stream::TaskGraph &graph, DispatchData &data,
        Tracer &tracer)
{
    LayerTotals layers;
    // One-worker host seconds of every repetition, by position
    // (conventional, dynamic), each with the mean of the reference
    // samples taken just before and after the pair.
    std::vector<std::vector<HostSample>> walls(2);
    std::vector<HostSample> dyn_makespans;
    std::vector<HostSample> p50s;
    std::vector<HostSample> p99s;
    // kThreads-worker raw host seconds of a pass, untraced and traced.
    std::vector<double> pool_walls;
    std::vector<double> traced_pool_walls;
    std::vector<double> speedups; ///< paired conv / dyn makespan
    std::vector<double> slowdowns; ///< kThreads / one-worker makespan
    double slo_attainment = 1.0;
    RunResult last_dynamic;

    auto checked = [&](const char *label, int threads, const HostRun &run) {
        const RunResult &r = run.result;
        report.attempted += graph.pairCount();
        report.failed += r.task_failures;
        report.check(!r.failed,
                     std::string(label) + ": run failed: " +
                         r.failure_reason);
        int mtl = threads;
        if (!r.mtl_trace.empty()) {
            mtl = 0;
            for (const auto &entry : r.mtl_trace)
                mtl = std::max(mtl, entry.second);
        }
        report.check(r.peak_mem_in_flight <= mtl,
                     std::string(label) +
                         ": peak memory tasks in flight above the MTL");
        report.check(data.seen == data.value,
                     std::string(label) + ": a compute task did not read "
                                          "its own memory task's value");
    };
    auto runPair = [&](int threads, Tracer *t, bool conv_first) {
        tt::core::ConventionalPolicy conv(threads);
        tt::core::DynamicThrottlePolicy dyn(threads, kWindow);
        RunPair pair;
        for (int k = 0; k < 2; ++k) {
            std::fill(data.slot.begin(), data.slot.end(), 0);
            std::fill(data.seen.begin(), data.seen.end(), 0);
            if ((k == 0) == conv_first) {
                pair.conventional = hostRun(graph, conv, threads, t, layers);
                checked("conventional", threads, *pair.conventional);
            } else {
                pair.dynamic = hostRun(graph, dyn, threads, t, layers);
                checked("dynamic", threads, *pair.dynamic);
            }
        }
        return pair;
    };

    const double started = hostNow();
    double last = 0.0;
    int reps = 0;
    // Rep 0 is the warm-up; traced mode alternates untraced (odd)
    // and traced (even) repetitions after it.
    while (moreReps(started, options.seconds, last, reps,
                    options.trace ? 3 : 2)) {
        const double rep_start = hostNow();
        const bool warmup = reps == 0;
        const bool traced = options.trace && !warmup && reps % 2 == 0;
        const bool conv_first = reps % 2 == 0;
        tracer.setRun(reps);

        const double before = referenceSeconds();
        const RunPair one = runPair(1, nullptr, conv_first);
        const double reference = 0.5 * (before + referenceSeconds());
        const RunPair pool =
            runPair(kThreads, traced ? &tracer : nullptr, conv_first);
        const HostRun &c1 = *one.conventional;
        const HostRun &d1 = *one.dynamic;
        const HostRun &c = *pool.conventional;
        const HostRun &d = *pool.dynamic;
        last = hostNow() - rep_start;
        ++reps;
        if (warmup) {
            // Peak memory of one repetition; later ones only add the
            // allocator's drift across worker threads.
            report.peak_rss_mb = peakRssMb();
            continue;
        }
        if (traced) {
            traced_pool_walls.push_back(c.host_seconds + d.host_seconds);
            tt::core::DynamicThrottlePolicy fresh(kThreads, kWindow);
            double seconds = 0.0;
            bool matches = false;
            const long calls =
                replayPolicy(d.result, fresh, seconds, matches);
            report.check(matches, "dynamic: replayed MTL trace differs");
            layers.addPolicy(d.result, calls, seconds);
            layers.endPass();
            last_dynamic = d.result;
            continue;
        }
        walls[0].push_back({c1.host_seconds, reference});
        walls[1].push_back({d1.host_seconds, reference});
        dyn_makespans.push_back({d1.result.seconds, reference});
        std::vector<double> responses;
        for (const tt::obs::JobSpan &span : d1.result.spans)
            responses.push_back(span.critical_path.response);
        const tt::obs::DistSummary summary =
            tt::obs::summarize(responses);
        p50s.push_back({summary.p50, reference});
        p99s.push_back({summary.p99, reference});
        slo_attainment = d1.result.slo_attainment;
        pool_walls.push_back(c.host_seconds + d.host_seconds);
        speedups.push_back(c.result.seconds / d.result.seconds);
        slowdowns.push_back(d.result.seconds / d1.result.seconds);
    }

    std::printf("%zu measured repetitions (conventional + dynamic on 1 "
                "and on %d workers), 1 warm-up discarded\n",
                walls[0].size(), kThreads);
    const double wall = atReferenceSpeed("1 worker conventional", walls[0]) +
                        atReferenceSpeed("1 worker dynamic", walls[1]);
    report.e2e("wall_s", wall, "s");
    // Each memory body writes one cache line.
    report.e2e("sim_req_per_s", 2.0 * graph.pairCount() / wall, "1/s");
    report.e2e("sim_makespan_ms",
               atReferenceSpeed("1 worker dynamic makespan",
                                dyn_makespans) *
                   1e3,
               "engine_ms");
    // Each repetition runs both policies back to back, so the paired
    // ratio needs no reference.
    report.e2e("dmtl_speedup", median(speedups), "ratio");
    report.e2e("pairs_per_s", 2.0 * graph.pairCount() / wall, "1/s");
    report.e2e("response_p50_us",
               atReferenceSpeed("1 worker dynamic response p50", p50s) *
                   1e6,
               "engine_us");
    report.e2e("response_p99_us",
               atReferenceSpeed("1 worker dynamic response p99", p99s) *
                   1e6,
               "engine_us");
    report.e2e("slo_attainment", slo_attainment, "frac");

    if (options.trace) {
        layers.publish(report, tracer);
        const double pool_wall =
            hostMedian("4 workers pass", pool_walls);
        report.layer("runtime.pool4_wall_s", pool_wall, "s");
        report.layer("runtime.pool4_slowdown", median(slowdowns), "ratio");
        std::vector<double> last_responses;
        for (const tt::obs::JobSpan &span : last_dynamic.spans)
            last_responses.push_back(span.critical_path.response);
        reportTailCriticalPath(report, last_dynamic,
                               tt::obs::summarize(last_responses).p99);
        report.layer("bench.trace_overhead_frac",
                     hostMedian("traced 4 workers pass", traced_pool_walls) /
                             pool_wall -
                         1.0,
                     "frac");
        std::vector<double> reference;
        for (const HostSample &sample : walls[0])
            reference.push_back(sample.reference);
        report.layer("bench.reference_s", median(reference), "s");
        runSimProbes(options.seed, report);
        if (!options.trace_out.empty())
            tracer.writeChromeTrace(options.trace_out);
    }
    return 0;
}

} // namespace

int
runHostDispatch(const Options &options, Report &report)
{
    // Near-empty bodies: the memory task copies its pair's seeded
    // value into a slot, the compute task reads it back. Wall time is
    // then almost all dispatch (pull path, worker loop, pair
    // completion under the scheduler mutex).
    constexpr int kPairs = 16384;
    Tracer tracer;
    const double setup_start = hostNow();
    auto data = std::make_shared<DispatchData>();
    tt::stream::TaskGraph graph;
    {
        ScopedSpan build(options.trace ? &tracer : nullptr,
                         "workloads.build");
        tt::Rng rng(options.seed);
        data->value.resize(kPairs);
        for (std::uint64_t &v : data->value)
            v = rng.next() | 1; // never equal to the reset value 0
        data->slot.assign(kPairs, 0);
        data->seen.assign(kPairs, 0);
        tt::stream::StreamProgramBuilder builder;
        builder.beginPhase("dispatch");
        builder.addPairs(kPairs, [&](int p) {
            const auto i = static_cast<std::size_t>(p);
            tt::stream::PairSpec spec;
            spec.host_memory = [data, i] { data->slot[i] = data->value[i]; };
            spec.host_compute = [data, i] { data->seen[i] = data->slot[i]; };
            spec.bytes = sizeof(std::uint64_t);
            spec.write_fraction = 1.0;
            spec.compute_cycles = 1;
            return spec;
        });
        graph = std::move(builder).build();
    }
    report.setup_seconds = hostNow() - setup_start;
    report.layer("workloads.build_s",
                 tracer.totalSeconds("workloads.build"), "s");
    if (options.setup_only)
        return 0;

    return runHost(options, report, graph, *data, tracer);
}

} // namespace perfbench
