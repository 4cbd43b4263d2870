/**
 * @file
 * Whole-stack benchmark program. Usage:
 *
 *   ttbench --workload W --seed N --seconds S --trace 0|1
 *           [--trace-out FILE] [--setup-only]
 *
 * Runs one workload for about S seconds and prints, as its last
 * line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics of a separate traced run with --trace 1. --setup-only
 * builds the workload's inputs and prints {"setup_s": X}. See
 * README.md for the workloads and metrics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.hh"
#include "layers.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: ttbench --workload "
                 "sim_fig14|host_dispatch|sim_openloop "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--setup-only]\n");
    return 2;
}

void
printMetrics(const std::map<std::string, perfbench::Report::Metric> &m)
{
    for (const auto &[name, metric] : m)
        std::printf("%-40s %.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

std::string
jsonMetrics(const std::map<std::string, perfbench::Report::Metric> &m)
{
    std::string out = "{";
    for (const auto &[name, metric] : m) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--setup-only") {
            options.setup_only = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            options.workload = argv[++i];
        } else if (arg == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = std::atof(argv[++i]);
            have_seconds = options.seconds > 0.0;
        } else if (arg == "--trace") {
            const std::string value = argv[++i];
            if (value != "0" && value != "1")
                return usage();
            options.trace = value == "1";
            have_trace = true;
        } else if (arg == "--trace-out") {
            options.trace_out = argv[++i];
        } else {
            return usage();
        }
    }
    if (!options.setup_only && !(have_seed && have_seconds && have_trace))
        return usage();

    using Runner = int (*)(const perfbench::Options &, perfbench::Report &);
    static const std::map<std::string, Runner> kWorkloads = {
        {"sim_fig14", perfbench::runSimFig14},
        {"host_dispatch", perfbench::runHostDispatch},
        {"sim_openloop", perfbench::runSimOpenloop},
    };
    const auto it = kWorkloads.find(options.workload);
    if (it == kWorkloads.end())
        return usage();

    perfbench::Report report;
    perfbench::LayerTotals::declareAll(report);
    if (!options.setup_only)
        std::printf("workload %s, seed %llu, %.0f s, trace %d\n",
                    options.workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.seconds, options.trace ? 1 : 0);
    const int rc = it->second(options, report);
    if (rc != 0)
        return rc;
    if (options.setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", report.setup_seconds);
        return 0;
    }

    report.e2e("setup_s", report.setup_seconds, "s");
    report.e2e("peak_rss_mb", report.peak_rss_mb, "MB");
    auto &metrics = options.trace ? report.per_layer : report.end_to_end;
    for (auto &[name, metric] : metrics)
        if (!report.check(std::isfinite(metric.value),
                          "metric " + name + " is not finite"))
            metric.value = 0.0; // keeps the result line valid JSON
    report.e2e("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "frac");

    printMetrics(metrics);
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                report.failed == 0 ? "true" : "false", report.attempted,
                report.failed, jsonMetrics(metrics).c_str());
    return 0;
}
