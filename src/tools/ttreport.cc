/**
 * @file
 * ttreport: latency attribution and regression analysis for one run.
 *
 * Run mode executes a workload on the simulator (in process, like
 * ttsim) and renders the obs::analyze() report: per-phase T_m/T_c
 * distributions attributed to the MTL in force, the queuing
 * decomposition fit, predicted-vs-measured model validation,
 * per-worker busy/stall/idle accounting and the policy's decision
 * audit log.
 *
 *   ttreport --workload phased --policy dynamic
 *   ttreport --workload synthetic --ratio 1.2 --json > report.json
 *   ttreport --policy dynamic --out baseline.json
 *
 * Diff mode compares two saved reports and fails when the candidate
 * regresses past the threshold -- the CI gate:
 *
 *   ttreport --diff baseline.json candidate.json --threshold 5
 *
 * SLO sweep mode (robustness extension): with --arrival-rate the run
 * becomes open-loop and ttreport additionally sweeps offered load at
 * 0.25x/0.5x/1x/1.5x/2x the given rate -- each sweep point a fresh
 * simulated run with seeded arrivals through bounded admission (see
 * load/arrival.hh) -- and appends an SLO section: p50/p95/p99
 * response time and shed rate per rate, plus the knee estimate (the
 * lowest swept rate where attainment first drops below 95%). The
 * attribution tables still describe the 1x run. Requires a
 * single-phase workload. diffReports() compares the SLO sections
 * when both reports carry one.
 *
 *   ttreport --workload synthetic --arrival-rate 2000 --slo-us 4000 \
 *            --service-us 60 --service-tql-us 20 --json
 *
 * Flags: run mode shares RunSpec (tools/run_spec.hh) with ttsim and
 * reads ttsim's run flags (see ttsim.cc), but the workload defaults to
 * phased and there is no --host, --priority-levels, --inject-* or
 * offline policy; --arrival-rate turns on the SLO sweep.
 *   --health     enable the streaming health detectors; the report
 *                gains a "health" section (alert counts per rule),
 *                compared by --diff when both sides carry one
 *   --json       print the report as JSON instead of tables
 *   --out FILE   also write the JSON report to FILE
 *   --diff BASELINE.json CANDIDATE.json   compare two reports
 *   --threshold PCT   relative regression threshold, percent  [5]
 *
 * Exit codes: 0 success / no regression; 1 regression found, input
 * unreadable or output write failed; 2 usage error or a flag value out
 * of range.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyzer.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "simrt/sim_runtime.hh"
#include "tools/run_spec.hh"
#include "util/flags.hh"
#include "util/json.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload synthetic|dft|streamcluster|sift|"
        "stencil|histogram|phased]\n"
        "          [--machine 1dimm|2dimm|2dimm-smt|power7]\n"
        "          [--policy conventional|static|dynamic|online]\n"
        "          [--mtl K] [--window W] [--hysteresis H]\n"
        "          [--ratio R] [--footprint-kb KB] [--pairs N]\n"
        "          [--dim D] [--json] [--out FILE]\n"
        "          [--arrival-rate R] "
        "[--arrival-process poisson|bursty|diurnal]\n"
        "          [--arrival-seed S] [--slo-us US] [--queue-cap N]\n"
        "          [--service-us US] [--service-tql-us US]\n"
        "          [--health]\n"
        "       %s --diff BASELINE.json CANDIDATE.json "
        "[--threshold PCT]\n"
        "exit codes: 0 ok / no regression, 1 regression or I/O "
        "failure, 2 usage\n",
        argv0, argv0);
    return 2;
}

/** Read and parse one saved report; nullopt (with a message) when
 *  it is unreadable or not JSON. */
std::optional<tt::json::Value>
readReport(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto report = tt::json::parse(text.str(), &error);
    if (!report)
        std::fprintf(stderr, "parse '%s': %s\n", path.c_str(),
                     error.c_str());
    return report;
}

int
runDiff(const std::string &baseline_path,
        const std::string &candidate_path, double threshold)
{
    const auto baseline = readReport(baseline_path);
    const auto candidate =
        baseline ? readReport(candidate_path) : std::nullopt;
    if (!candidate)
        return 1;
    const tt::obs::DiffResult diff =
        tt::obs::diffReports(*baseline, *candidate, threshold);
    for (const std::string &note : diff.notes)
        std::printf("MISMATCH  %s\n", note.c_str());
    for (const tt::obs::DiffFinding &finding : diff.regressions)
        std::printf("REGRESSED %s: %.6g -> %.6g (%+.2f%%)\n",
                    finding.metric.c_str(), finding.baseline,
                    finding.candidate, finding.change * 100.0);
    if (!diff.regressed()) {
        std::printf("no regressions past %.2f%% (%s vs %s)\n",
                    threshold * 100.0, candidate_path.c_str(),
                    baseline_path.c_str());
        return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    tt::Flags flags;
    static const std::vector<std::string> known_flags = {
        "help", "workload", "machine", "policy", "mtl", "window",
        "hysteresis", "ratio", "footprint-kb", "pairs", "dim", "json",
        "out", "diff", "threshold", "arrival-rate", "arrival-process",
        "arrival-seed", "slo-us", "queue-cap", "service-us",
        "service-tql-us", "health",
    };
    if (!flags.parse(argc, argv) || !flags.allowOnly(known_flags) ||
        flags.has("help")) {
        if (!flags.error().empty())
            std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    const double threshold = flags.getDouble("threshold", 5.0) / 100.0;
    if (threshold < 0.0 || !flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n",
                     flags.error().empty() ? "--threshold must be >= 0"
                                           : flags.error().c_str());
        return 2;
    }

    if (flags.has("diff")) {
        const std::string baseline = flags.getString("diff", "");
        if (baseline.empty() || flags.positional().size() != 1) {
            std::fprintf(stderr,
                         "--diff needs BASELINE.json CANDIDATE.json\n");
            return usage(argv[0]);
        }
        return runDiff(baseline, flags.positional().front(),
                       threshold);
    }
    if (!flags.positional().empty()) {
        std::fprintf(stderr, "unexpected positional argument '%s'\n",
                     flags.positional().front().c_str());
        return usage(argv[0]);
    }

    // ---- run mode: one simulated run, analysed in process ----------
    std::string error;
    const std::optional<tt::tools::RunSpec> spec =
        tt::tools::parseRunSpec(flags, "phased", &error);
    if (spec && spec->policy == "offline")
        error = "--policy offline is a ttsim run mode, not a policy";
    if (!error.empty()) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    const tt::stream::TaskGraph graph = tt::tools::buildGraph(*spec, nullptr);
    if (spec->arrival_rate > 0.0 && graph.phaseCount() != 1) {
        std::fprintf(stderr,
                     "error: the SLO sweep requires a single-phase "
                     "workload (got %d phases)\n",
                     graph.phaseCount());
        return 2;
    }

    // One simulated run, optionally open-loop; fresh machine, policy
    // and counter provider each time so runs are independent.
    const auto runSim =
        [&](const tt::load::ArrivalPlan *plan)
        -> tt::exec::RunResult {
        const auto policy = tt::tools::makePolicy(*spec);
        tt::cpu::SimMachine sim_machine(spec->machine);
        // Always attach the synthesized counter provider: the run is
        // deterministic either way, and the interference table turns
        // the report from "where did the time go" into "which MTL
        // let misses queue up".
        tt::obs::perf::SimCounterProvider sim_counters;
        tt::exec::EngineOptions engine_options;
        engine_options.counters = &sim_counters;
        engine_options.arrival_plan = plan;
        engine_options.admission = spec->admission;
        engine_options.health.enabled = spec->health;
        tt::simrt::SimRuntime sim_runtime(sim_machine, graph, *policy,
                                          engine_options);
        return sim_runtime.run();
    };

    // The swept offered loads, as multiples of --arrival-rate; the
    // 1x run doubles as the attribution run the tables describe.
    static const double kSweepFactors[] = {0.25, 0.5, 1.0, 1.5, 2.0};
    // A rate "degrades" (and can be the knee) below this attainment.
    constexpr double kKneeAttainment = 0.95;

    tt::obs::SloReport slo;
    std::optional<tt::exec::RunResult> main_result;
    if (spec->arrival_rate > 0.0) {
        slo.valid = true;
        slo.slo_seconds = spec->arrivals.slo_seconds;
        for (const double factor : kSweepFactors) {
            const double rate = spec->arrival_rate * factor;
            const tt::load::ArrivalPlan plan = tt::tools::arrivalPlan(
                *spec, rate, graph.pairCount(), nullptr);
            tt::exec::RunResult result = runSim(&plan);
            if (result.failed) {
                std::fprintf(stderr,
                             "sweep run at %.0f jobs/s failed: %s\n",
                             rate, result.failure_reason.c_str());
                return 1;
            }
            tt::obs::SloPoint point;
            point.offered_rate = rate;
            point.offered = result.jobs_offered;
            point.admitted = result.jobs_admitted;
            point.shed = result.jobs_shed;
            point.missed = result.jobs_deadline_missed;
            point.shed_rate =
                result.jobs_offered > 0
                    ? static_cast<double>(result.jobs_shed) /
                          static_cast<double>(result.jobs_offered)
                    : 0.0;
            const tt::obs::DistSummary response =
                tt::obs::summarize(result.response_seconds);
            point.p50 = response.p50;
            point.p95 = response.p95;
            point.p99 = response.p99;
            point.attainment = result.slo_attainment;
            if (point.attainment < kKneeAttainment &&
                slo.knee_rate == 0.0)
                slo.knee_rate = point.offered_rate;
            slo.points.push_back(point);
            if (factor == 1.0)
                main_result = std::move(result);
        }
    } else {
        main_result = runSim(nullptr);
        if (main_result->failed) {
            std::fprintf(stderr, "run failed: %s\n",
                         main_result->failure_reason.c_str());
            return 1;
        }
    }
    const tt::exec::RunResult &result = *main_result;

    tt::obs::AnalyzeOptions options;
    options.policy = tt::tools::makePolicy(*spec)->name();
    options.cores = spec->contexts();
    options.makespan = result.seconds;
    options.policy_stats = result.policy_stats;
    tt::obs::Report report =
        tt::obs::analyze(tt::exec::toTraceData(graph, result),
                         options);
    report.slo = std::move(slo);

    const std::string out_path = flags.getString("out", "");
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (out)
            tt::obs::writeReportJson(report, out);
        out.flush();
        if (!out) {
            std::fprintf(stderr, "writing '%s' failed\n",
                         out_path.c_str());
            return 1;
        }
    }
    if (flags.getBool("json")) {
        std::ostringstream os;
        tt::obs::writeReportJson(report, os);
        std::fputs(os.str().c_str(), stdout);
    } else {
        std::fputs(tt::obs::reportTable(report).c_str(), stdout);
    }
    return 0;
}
