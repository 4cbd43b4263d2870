/**
 * @file
 * The two workloads on the simulated 1-DIMM quad-core (sim_fig14,
 * sim_openloop) and the standalone probes of the two hottest sim
 * layers. Simulated results are deterministic: every repetition of a
 * run must give the same digest, traced or not.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "core/dynamic_policy.hh"
#include "layers.hh"
#include "load/arrival.hh"
#include "obs/analyzer.hh"
#include "simrt/sim_runtime.hh"
#include "traced_backend.hh"
#include "util/random.hh"
#include "workloads/dft.hh"
#include "workloads/sift.hh"
#include "workloads/streamcluster.hh"
#include "workloads/synthetic.hh"

namespace perfbench {

namespace {

using tt::exec::RunResult;
using MachinePtr = std::unique_ptr<tt::cpu::SimMachine>;

const tt::cpu::MachineConfig kConfig =
    tt::cpu::MachineConfig::i7_860_1dimm();

/** A fresh machine: each run starts with an empty modelled LLC. */
MachinePtr
makeMachine()
{
    return std::make_unique<tt::cpu::SimMachine>(kConfig);
}

std::vector<MachinePtr>
makeMachines(std::size_t count)
{
    std::vector<MachinePtr> machines;
    for (std::size_t i = 0; i < count; ++i)
        machines.push_back(makeMachine());
    return machines;
}

/** One sim run of a workload's pass. */
struct RunSpec
{
    std::string label;
    const tt::stream::TaskGraph *graph = nullptr;
    tt::exec::EngineOptions options;
    /** Builds a fresh policy (for the run, and for the replay). */
    std::function<std::unique_ptr<tt::core::SchedulingPolicy>()> policy;
    /** Replay the run's samples into a fresh policy when traced. */
    bool replay = false;
};

struct SimRun
{
    RunResult result;
    double host_seconds = 0.0; ///< run() only
};

/**
 * One run on `machine`. Untraced runs go through simrt::SimRuntime;
 * traced runs build the same backend and engine by hand so drive()
 * and startAttempt() pass through the forwarding wrapper, and bind a
 * metrics registry for the per-layer counts.
 */
SimRun
simRun(tt::cpu::SimMachine &machine, const RunSpec &spec,
       tt::core::SchedulingPolicy &policy, Tracer *tracer,
       LayerTotals &layers)
{
    SimRun out;
    const tt::stream::TaskGraph &graph = *spec.graph;
    if (tracer == nullptr) {
        tt::simrt::SimRuntime runtime(machine, graph, policy, spec.options);
        const double t0 = hostNow();
        out.result = runtime.run();
        out.host_seconds = hostNow() - t0;
        return out;
    }
    tt::MetricsRegistry metrics;
    tt::exec::EngineOptions options = spec.options;
    options.metrics = &metrics;
    std::optional<tt::simrt::SimBackend> backend;
    std::optional<tt::exec::Engine> engine;
    {
        ScopedSpan span(tracer, "simrt.construct");
        backend.emplace(machine, graph, &metrics);
        engine.emplace(graph, policy, options);
    }
    TracedBackend traced(*backend, *tracer, "simrt.drive",
                         "simrt.startAttempt");
    const double t0 = hostNow();
    {
        ScopedSpan span(tracer, "simrt.run");
        out.result = engine->run(traced);
    }
    out.host_seconds = hostNow() - t0;
    layers.addRun(out.result, metrics, machine.contexts(),
                  traced.timerCallbacks(), false);
    layers.addMachine(machine);
    return out;
}

std::uint64_t
digestRun(const RunResult &run)
{
    Digest digest;
    digest.add(run.seconds);
    digest.add(run.dram_accesses);
    for (const auto &[time, mtl] : run.mtl_trace) {
        digest.add(time);
        digest.add(static_cast<std::uint64_t>(mtl));
    }
    for (const tt::obs::JobSpan &span : run.spans)
        digest.add(span.critical_path.response);
    for (double response : run.response_seconds)
        digest.add(response);
    return digest.value();
}

/**
 * Run `spec` once on `machine` and apply every output check: the run
 * did not fail; closed loop, exec::validateSchedule passes; open
 * loop, offered = admitted + shed and every plan job was offered;
 * the peak of memory tasks in flight is within the largest MTL. The
 * run's pairs count as attempted operations, its task failures as
 * failed ones. Traced dynamic runs are replayed into a fresh policy,
 * which must reproduce the run's MTL trace.
 */
SimRun
executeRun(const RunSpec &spec, tt::cpu::SimMachine &machine,
           Tracer *tracer, LayerTotals &layers, Report &checks)
{
    const std::unique_ptr<tt::core::SchedulingPolicy> policy =
        spec.policy();
    SimRun run = simRun(machine, spec, *policy, tracer, layers);
    const RunResult &r = run.result;
    const tt::stream::TaskGraph &graph = *spec.graph;
    const int contexts = machine.contexts();

    checks.attempted += graph.pairCount();
    checks.failed += r.task_failures;
    checks.check(!r.failed, spec.label + ": run failed: " +
                                r.failure_reason);
    if (spec.options.arrival_plan == nullptr) {
        const std::string violation =
            tt::exec::validateSchedule(graph, r, contexts);
        checks.check(violation.empty(), spec.label + ": " + violation);
    } else {
        checks.check(r.jobs_offered == r.jobs_admitted + r.jobs_shed,
                     spec.label + ": offered != admitted + shed");
        checks.check(r.jobs_offered == graph.pairCount(),
                     spec.label + ": plan jobs not offered");
    }
    int mtl = r.mtl_trace.empty() ? contexts : 0;
    for (const auto &entry : r.mtl_trace)
        mtl = std::max(mtl, entry.second);
    checks.check(r.peak_mem_in_flight <= mtl,
                 spec.label + ": peak memory tasks in flight above MTL");

    if (tracer != nullptr && spec.replay) {
        const std::unique_ptr<tt::core::SchedulingPolicy> fresh =
            spec.policy();
        double seconds = 0.0;
        bool matches = false;
        const long calls = replayPolicy(r, *fresh, seconds, matches);
        checks.check(matches, spec.label + ": replayed MTL trace differs");
        layers.addPolicy(r, calls, seconds);
    }
    return run;
}

/** What the repetitions of a sim workload measured. */
struct SimLoop
{
    /** Results of the first pass, by run position (deterministic). */
    std::vector<RunResult> results;
    /** Host seconds of every repetition, by run position. */
    std::vector<std::vector<HostSample>> untraced;
    std::vector<std::vector<HostSample>> traced;
};

/**
 * Repeat the workload's runs for the time budget. The first pass runs
 * on the main thread on the set-up machines and keeps the results.
 *
 * Untraced: the rest of the budget goes to kRunWorkers threads that
 * take single runs round-robin over the positions, each on a fresh
 * machine, which gives every position many samples. Every run sits
 * between two reference-kernel samples on its thread.
 *
 * Traced: the tracer is single-threaded, so traced and untraced
 * passes alternate on the main thread, and the traced ones feed
 * `layers`.
 *
 * Every repetition of a run must give the first pass's digest.
 */
SimLoop
loopRuns(const Options &options, Report &report, Tracer &tracer,
         LayerTotals &layers, const std::vector<RunSpec> &specs,
         std::vector<MachinePtr> first)
{
    constexpr int kRunWorkers = 4;
    const std::size_t n_runs = specs.size();
    SimLoop loop;
    loop.results.resize(n_runs);
    loop.untraced.resize(n_runs);
    loop.traced.resize(n_runs);
    std::vector<std::uint64_t> digests(n_runs);
    const double started = hostNow();
    // One timed run between two reference samples on its thread.
    auto timedRun = [&](std::size_t r, tt::cpu::SimMachine &machine,
                        Tracer *traced, Report &checks,
                        HostSample &sample) {
        const double before = referenceSeconds();
        SimRun run = executeRun(specs[r], machine, traced, layers, checks);
        sample = {run.host_seconds, 0.5 * (before + referenceSeconds())};
        return run;
    };

    double pass_seconds = 0.0;
    for (std::size_t r = 0; r < n_runs; ++r) {
        HostSample sample;
        SimRun run = timedRun(r, *first[r], nullptr, report, sample);
        digests[r] = digestRun(run.result);
        loop.untraced[r].push_back(sample);
        pass_seconds += run.host_seconds;
        loop.results[r] = std::move(run.result);
    }
    // Peak memory of one run at a time, before the workers overlap.
    report.peak_rss_mb = peakRssMb();
    auto digestCheck = [&](std::size_t r, const RunResult &result) {
        report.check(digestRun(result) == digests[r],
                     specs[r].label +
                         ": simulated results differ between repetitions");
    };

    if (options.trace) {
        for (int pass = 1; pass < 3 || hostNow() - started + pass_seconds <=
                                           options.seconds;
             ++pass) {
            const bool traced = pass % 2 == 1;
            tracer.setRun(pass);
            for (std::size_t r = 0; r < n_runs; ++r) {
                const MachinePtr machine = makeMachine();
                HostSample sample;
                const SimRun run = timedRun(
                    r, *machine, traced ? &tracer : nullptr, report, sample);
                digestCheck(r, run.result);
                (traced ? loop.traced : loop.untraced)[r].push_back(sample);
            }
            if (traced)
                layers.endPass();
        }
        return loop;
    }

    std::vector<double> estimate; // first-pass host seconds
    for (const std::vector<HostSample> &samples : loop.untraced)
        estimate.push_back(samples.front().seconds);
    std::atomic<std::size_t> next_job{0};
    std::mutex mutex; // guards report and loop
    std::vector<std::thread> workers;
    for (int w = 0; w < kRunWorkers; ++w) {
        workers.emplace_back([&] {
            for (;;) {
                const std::size_t r = next_job.fetch_add(1) % n_runs;
                if (hostNow() - started + estimate[r] > options.seconds)
                    return;
                const MachinePtr machine = makeMachine();
                Report checks;
                HostSample sample;
                const SimRun run =
                    timedRun(r, *machine, nullptr, checks, sample);
                std::lock_guard<std::mutex> lock(mutex);
                report.attempted += checks.attempted;
                report.failed += checks.failed;
                digestCheck(r, run.result);
                loop.untraced[r].push_back(sample);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    return loop;
}

/** Host seconds of one pass at the reference speed: the sum over
 *  the run positions. */
double
passSeconds(const std::vector<std::vector<HostSample>> &by_run,
            const std::vector<RunSpec> &specs)
{
    double total = 0.0;
    for (std::size_t r = 0; r < by_run.size(); ++r)
        total += atReferenceSpeed(specs[r].label, by_run[r]);
    return total;
}

/** End-to-end host-time metrics of a sim workload: wall_s,
 *  sim_req_per_s and pairs_per_s, at the reference speed. */
void
reportSimThroughput(Report &report, const SimLoop &loop,
                    const std::vector<RunSpec> &specs, double dram,
                    double pairs)
{
    const double wall = passSeconds(loop.untraced, specs);
    report.e2e("wall_s", wall, "s");
    report.e2e("sim_req_per_s", dram / wall, "1/s");
    report.e2e("pairs_per_s", pairs / wall, "1/s");
}

/** Per-layer metrics every traced sim run reports. */
void
reportSimLayers(const Options &options, Report &report,
                const Tracer &tracer, const LayerTotals &layers,
                const SimLoop &loop, const std::vector<RunSpec> &specs)
{
    layers.publish(report, tracer);
    const double untraced = passSeconds(loop.untraced, specs);
    report.layer("bench.trace_overhead_frac",
                 passSeconds(loop.traced, specs) / untraced - 1.0, "frac");
    std::vector<double> reference;
    for (const std::vector<HostSample> &samples : loop.untraced)
        for (const HostSample &sample : samples)
            reference.push_back(sample.reference);
    report.layer("bench.reference_s", median(reference), "s");
    runSimProbes(options.seed, report);
    if (!options.trace_out.empty())
        tracer.writeChromeTrace(options.trace_out);
}

/** Response times (engine-clock seconds) of the completed spans. */
std::vector<double>
spanResponses(const RunResult &run)
{
    std::vector<double> out;
    for (const tt::obs::JobSpan &span : run.spans)
        if (span.outcome == tt::obs::SpanOutcome::Completed ||
            span.outcome == tt::obs::SpanOutcome::DeadlineMiss)
            out.push_back(span.critical_path.response);
    return out;
}

} // namespace

void
reportTailCriticalPath(Report &report, const RunResult &run, double p99)
{
    double queue_wait = 0.0;
    double mem_stall = 0.0;
    double compute = 0.0;
    int n = 0;
    for (const tt::obs::JobSpan &span : run.spans) {
        if (span.outcome == tt::obs::SpanOutcome::Shed ||
            span.critical_path.response < p99)
            continue;
        queue_wait += span.critical_path.queue_wait;
        mem_stall += span.critical_path.mem_stall;
        compute += span.critical_path.compute;
        ++n;
    }
    const double scale = n > 0 ? 1e6 / n : 0.0;
    report.layer("obs.cp.queue_wait_us", queue_wait * scale, "engine_us");
    report.layer("obs.cp.mem_stall_us", mem_stall * scale, "engine_us");
    report.layer("obs.cp.compute_us", compute * scale, "engine_us");
}

int
runSimFig14(const Options &options, Report &report)
{
    const int n = kConfig.contexts();
    Tracer tracer;
    struct App
    {
        const char *name;
        tt::stream::TaskGraph graph;
        int window;   ///< best W per Sec. VI-C, as bench_fig14_realistic
        double paper; ///< Fig. 14 D-MTL speedup (0: not recorded)
    };
    std::vector<App> apps;
    const double setup_start = hostNow();
    {
        ScopedSpan build(options.trace ? &tracer : nullptr,
                         "workloads.build");
        apps.push_back({"dft", tt::workloads::dftSim(kConfig), 8, 0.0});
        apps.push_back({"SC_d128",
                        tt::workloads::streamclusterSim(kConfig, 128), 16,
                        1.213});
        apps.push_back({"SIFT", tt::workloads::siftSim(kConfig), 16,
                        1.086});
    }
    // The first pass's machines are set-up work; later repetitions
    // build theirs before their runs are timed.
    std::vector<MachinePtr> machines = makeMachines(2 * apps.size());
    report.setup_seconds = hostNow() - setup_start;
    report.layer("workloads.build_s",
                 tracer.totalSeconds("workloads.build"), "s");
    if (options.setup_only)
        return 0;

    // Positions 2a and 2a+1: app a under conventional and D-MTL.
    std::vector<RunSpec> specs;
    for (const App &app : apps) {
        RunSpec conv;
        conv.label = std::string(app.name) + " conventional";
        conv.graph = &app.graph;
        conv.policy = [n] {
            return std::make_unique<tt::core::ConventionalPolicy>(n);
        };
        specs.push_back(conv);
        RunSpec dyn;
        dyn.label = std::string(app.name) + " D-MTL";
        dyn.graph = &app.graph;
        dyn.policy = [n, w = app.window] {
            return std::make_unique<tt::core::DynamicThrottlePolicy>(n, w);
        };
        dyn.replay = true;
        specs.push_back(dyn);
    }

    std::printf("each sim run starts on a fresh machine with an empty "
                "modelled LLC\n");
    LayerTotals layers;
    const SimLoop loop = loopRuns(options, report, tracer, layers, specs,
                                  std::move(machines));

    std::vector<double> speedups;
    std::vector<double> dynamic;
    std::vector<double> responses;
    double dram = 0.0;
    double pairs = 0.0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const RunResult &conv = loop.results[2 * a];
        const RunResult &dyn = loop.results[2 * a + 1];
        dynamic.push_back(dyn.seconds);
        speedups.push_back(conv.seconds / dyn.seconds);
        dram += static_cast<double>(conv.dram_accesses + dyn.dram_accesses);
        pairs += 2.0 * apps[a].graph.pairCount();
        const std::vector<double> r = spanResponses(dyn);
        responses.insert(responses.end(), r.begin(), r.end());
        if (apps[a].paper > 0.0)
            std::printf("%-8s dmtl_speedup %.3f  paper %.3f  error "
                        "%+.1f%%\n",
                        apps[a].name, speedups.back(), apps[a].paper,
                        (speedups.back() / apps[a].paper - 1.0) * 100.0);
        else
            std::printf("%-8s dmtl_speedup %.3f  paper: not recorded\n",
                        apps[a].name, speedups.back());
    }
    const double geomean = tt::geometricMean(speedups);
    std::printf("geomean  dmtl_speedup %.3f  paper %.3f  error %+.1f%%\n",
                geomean, 1.12, (geomean / 1.12 - 1.0) * 100.0);

    const tt::obs::DistSummary response = tt::obs::summarize(responses);
    reportSimThroughput(report, loop, specs, dram, pairs);
    report.e2e("sim_makespan_ms", tt::geometricMean(dynamic) * 1e3,
               "engine_ms");
    report.e2e("dmtl_speedup", geomean, "ratio");
    report.e2e("response_p50_us", response.p50 * 1e6, "engine_us");
    report.e2e("response_p99_us", response.p99 * 1e6, "engine_us");
    report.e2e("slo_attainment", loop.results.back().slo_attainment,
               "frac");

    if (options.trace) {
        const RunResult &sift = loop.results.back();
        reportTailCriticalPath(
            report, sift, tt::obs::summarize(spanResponses(sift)).p99);
        reportSimLayers(options, report, tracer, layers, loop, specs);
    }
    return 0;
}

int
runSimOpenloop(const Options &options, Report &report)
{
    // 128 KiB jobs keep the job counts affordable; the rates sit at
    // ~0.4x and ~1.6x the knee of this job size. The below-knee run
    // has 4800 jobs so its p99 has 48 samples beyond it.
    constexpr int kBelowKneeJobs = 4800;
    constexpr int kOverloadJobs = 1200;
    constexpr double kBelowKneeRate = 20000.0;
    constexpr double kOverloadRate = 80000.0;
    constexpr double kSloSeconds = 400e-6;
    constexpr int kQueueCap = 16;
    constexpr int kWindow = 16;

    const int n = kConfig.contexts();
    Tracer tracer;
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.5;
    params.footprint_bytes = 128 * 1024;

    const double setup_start = hostNow();
    tt::stream::TaskGraph below_graph;
    tt::stream::TaskGraph overload_graph;
    tt::exec::EngineOptions base;
    tt::load::ArrivalPlan below;
    tt::load::ArrivalPlan overload;
    {
        ScopedSpan build(options.trace ? &tracer : nullptr,
                         "workloads.build");
        params.pairs = kBelowKneeJobs;
        below_graph = tt::workloads::buildSyntheticSim(kConfig, params);
        params.pairs = kOverloadJobs;
        overload_graph = tt::workloads::buildSyntheticSim(kConfig, params);

        // Admission model: fit T(b) = T_ml + b * T_ql (Sec. IV-C) from
        // two short closed-loop runs of the same job shape at MTL 1
        // and MTL n.
        params.pairs = 64;
        const tt::stream::TaskGraph fit =
            tt::workloads::buildSyntheticSim(kConfig, params);
        tt::core::StaticMtlPolicy serial(1, n);
        tt::core::ConventionalPolicy parallel(n);
        const RunResult r1 = tt::simrt::runOnce(kConfig, fit, serial);
        const RunResult rn = tt::simrt::runOnce(kConfig, fit, parallel);
        const double tql = (rn.avg_tm - r1.avg_tm) / (n - 1);
        base.admission.queue_cap = kQueueCap;
        base.admission.service_tml = r1.avg_tm - tql;
        base.admission.service_tql = tql;
        base.admission.service_tc = r1.avg_tc;
        base.health.enabled = true;

        tt::load::ArrivalConfig arrivals;
        arrivals.seed = options.seed;
        arrivals.slo_seconds = kSloSeconds;
        arrivals.rate = kBelowKneeRate;
        below = tt::load::buildArrivalPlan(arrivals, kBelowKneeJobs);
        arrivals.rate = kOverloadRate;
        overload = tt::load::buildArrivalPlan(arrivals, kOverloadJobs);
    }
    std::vector<MachinePtr> machines = makeMachines(3);
    report.setup_seconds = hostNow() - setup_start;
    report.layer("workloads.build_s",
                 tracer.totalSeconds("workloads.build"), "s");
    if (options.setup_only)
        return 0;

    auto slo_aware = [n, w = kWindow]()
        -> std::unique_ptr<tt::core::SchedulingPolicy> {
        auto policy = std::make_unique<tt::core::DynamicThrottlePolicy>(n, w);
        policy->setSloAware();
        return policy;
    };
    std::vector<RunSpec> specs(3);
    specs[0].label = "below-knee D-MTL";
    specs[0].graph = &below_graph;
    specs[0].options = base;
    specs[0].options.arrival_plan = &below;
    specs[0].policy = slo_aware;
    specs[0].replay = true;
    specs[1] = specs[0];
    specs[1].label = "below-knee conventional";
    specs[1].policy = [n] {
        return std::make_unique<tt::core::ConventionalPolicy>(n);
    };
    specs[1].replay = false;
    specs[2] = specs[0];
    specs[2].label = "overload D-MTL";
    specs[2].graph = &overload_graph;
    specs[2].options.arrival_plan = &overload;

    std::printf("each sim run starts on a fresh machine with an empty "
                "modelled LLC\n");
    std::printf("admission fit: T_ml %.1f us, T_ql %.1f us, T_c %.1f us\n",
                base.admission.service_tml * 1e6,
                base.admission.service_tql * 1e6,
                base.admission.service_tc * 1e6);
    std::printf("generator lateness 0 us: arrivals are simulated "
                "events\n");
    LayerTotals layers;
    const SimLoop loop = loopRuns(options, report, tracer, layers, specs,
                                  std::move(machines));
    const RunResult &low_dyn = loop.results[0];
    const RunResult &low_conv = loop.results[1];
    const RunResult &high_dyn = loop.results[2];

    double dram = 0.0;
    double pairs = 0.0;
    for (const RunResult &r : loop.results) {
        dram += static_cast<double>(r.dram_accesses);
        pairs += static_cast<double>(r.jobs_admitted);
    }
    const tt::obs::DistSummary response =
        tt::obs::summarize(low_dyn.response_seconds);
    std::printf("below-knee %.0f jobs/s: %zu responses, p99 has %zu "
                "beyond it\n",
                kBelowKneeRate, response.count,
                response.count - static_cast<std::size_t>(std::ceil(
                                     0.99 * response.count)));
    reportSimThroughput(report, loop, specs, dram, pairs);
    report.e2e("sim_makespan_ms", low_dyn.seconds * 1e3, "engine_ms");
    // Open-loop makespan is set by the arrival schedule, so the
    // throttling effect shows in the response time instead.
    report.e2e("dmtl_speedup",
               tt::obs::summarize(low_conv.response_seconds).mean /
                   response.mean,
               "ratio");
    report.e2e("response_p50_us", response.p50 * 1e6, "engine_us");
    report.e2e("response_p99_us", response.p99 * 1e6, "engine_us");
    report.e2e("slo_attainment", high_dyn.slo_attainment, "frac");

    if (options.trace) {
        reportTailCriticalPath(report, low_dyn, response.p99);
        const double offered = static_cast<double>(high_dyn.jobs_offered);
        report.layer("load.admitted_frac",
                     high_dyn.jobs_admitted / offered, "frac");
        report.layer("load.delayed_frac", high_dyn.jobs_delayed / offered,
                     "frac");
        report.layer("load.shed_frac", high_dyn.jobs_shed / offered,
                     "frac");
        report.layer("load.deadline_missed",
                     static_cast<double>(high_dyn.jobs_deadline_missed),
                     "count");
        reportSimLayers(options, report, tracer, layers, loop, specs);
    }
    return 0;
}

void
runSimProbes(std::uint64_t seed, Report &report)
{
    constexpr int kReps = 5;

    // EventQueue::schedule + runOne on a mixed-delay stream: 1024
    // events stay live; each executed event schedules its successor
    // with the next delay (same tick, short, or long).
    std::vector<tt::sim::Tick> delays(4096);
    tt::Rng rng(seed);
    for (tt::sim::Tick &d : delays) {
        const std::uint64_t kind = rng.nextBounded(4);
        d = kind == 0   ? 0
            : kind == 3 ? 1'000'000 + rng.nextBounded(9'000'000)
                        : 1 + rng.nextBounded(1000);
    }
    std::vector<double> event_ns;
    for (int rep = 0; rep < kReps; ++rep) {
        tt::sim::EventQueue queue;
        long remaining = 400'000;
        std::size_t next = 0;
        std::function<void()> event = [&] {
            if (remaining-- > 0)
                queue.scheduleIn(delays[next++ & 4095], event);
        };
        for (int i = 0; i < 1024; ++i)
            queue.scheduleIn(delays[next++ & 4095], event);
        const double t0 = hostNow();
        while (queue.runOne()) {
        }
        event_ns.push_back((hostNow() - t0) * 1e9 /
                           static_cast<double>(queue.executed()));
    }
    report.layer("sim.probe_event_ns", median(event_ns), "ns");

    // MemorySystem::access on one memory task's streaming line
    // pattern: 512 KiB of consecutive lines, at most mlp_per_context
    // outstanding, each completion issuing the next line.
    constexpr std::uint64_t kLines = 512 * 1024 / 64;
    std::vector<double> req_ns;
    for (int rep = 0; rep < kReps; ++rep) {
        tt::sim::EventQueue queue;
        tt::mem::MemorySystem mem(queue, kConfig.mem);
        std::uint64_t issued = 0;
        std::function<void()> issue = [&] {
            mem.access(issued++, true, [&] {
                if (issued < kLines)
                    issue();
            });
        };
        const double t0 = hostNow();
        for (int i = 0; i < kConfig.mlp_per_context; ++i)
            issue();
        while (queue.runOne()) {
        }
        req_ns.push_back((hostNow() - t0) * 1e9 /
                         static_cast<double>(kLines));
        report.check(mem.totalAccesses() == kLines,
                     "memory probe lost requests");
    }
    report.layer("mem.probe_req_ns", median(req_ns), "ns");
}

} // namespace perfbench
