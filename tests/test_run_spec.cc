/**
 * @file
 * Unit tests of the run spec ttsim and ttreport share: every machine,
 * workload and policy name builds what the tools built by hand, and
 * every out-of-range value is rejected with a message instead of
 * reaching a library assertion. No test starts a thread.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "tools/run_spec.hh"
#include "workloads/dft.hh"
#include "workloads/histogram.hh"
#include "workloads/phased.hh"
#include "workloads/sift.hh"
#include "workloads/stencil.hh"
#include "workloads/streamcluster.hh"

namespace {

using tt::cpu::MachineConfig;
using tt::tools::RunSpec;

std::optional<RunSpec>
parse(std::vector<const char *> args, std::string *error = nullptr,
      const std::string &default_workload = "synthetic")
{
    args.insert(args.begin(), "tool");
    tt::Flags flags;
    EXPECT_TRUE(flags.parse(static_cast<int>(args.size()), args.data()));
    std::string message;
    std::optional<RunSpec> spec =
        tt::tools::parseRunSpec(flags, default_workload, &message);
    EXPECT_EQ(spec.has_value(), message.empty()) << message;
    if (error != nullptr)
        *error = message;
    return spec;
}

void
expectSameGraph(const tt::stream::TaskGraph &got,
                const tt::stream::TaskGraph &want)
{
    ASSERT_EQ(got.taskCount(), want.taskCount());
    EXPECT_EQ(got.pairCount(), want.pairCount());
    ASSERT_EQ(got.phaseCount(), want.phaseCount());
    for (int p = 0; p < want.phaseCount(); ++p)
        EXPECT_EQ(got.phase(p).name, want.phase(p).name);
    for (int t = 0; t < want.taskCount(); ++t) {
        const tt::stream::SimWork &a = got.task(t).sim_work;
        const tt::stream::SimWork &b = want.task(t).sim_work;
        EXPECT_EQ(a.bytes, b.bytes) << "task " << t;
        EXPECT_EQ(a.write_fraction, b.write_fraction) << "task " << t;
        EXPECT_EQ(a.compute_cycles, b.compute_cycles) << "task " << t;
        EXPECT_EQ(a.footprint_bytes, b.footprint_bytes) << "task " << t;
    }
}

TEST(RunSpec, DefaultsAreTheToolDefaults)
{
    const auto spec = parse({});
    ASSERT_TRUE(spec);
    EXPECT_EQ(spec->machine_name, "1dimm");
    EXPECT_EQ(spec->contexts(), 4);
    EXPECT_FALSE(spec->host);
    EXPECT_EQ(spec->workload, "synthetic");
    EXPECT_EQ(spec->pairs, 128);
    EXPECT_EQ(spec->footprint_bytes, 512u * 1024u);
    EXPECT_EQ(spec->policy, "dynamic");
    EXPECT_EQ(spec->mtl, 1);
    EXPECT_EQ(spec->window, 16);
    EXPECT_EQ(spec->arrival_rate, 0.0);
    EXPECT_EQ(spec->admission.queue_cap, 64);
    EXPECT_EQ(spec->arrivals.priority_levels, 1);
    EXPECT_FALSE(spec->faults.enabled() || spec->faults.jobFaultsEnabled());
    EXPECT_EQ(spec->max_retries, 3);
    EXPECT_FALSE(spec->health);

    const auto report = parse({}, nullptr, "phased");
    ASSERT_TRUE(report);
    EXPECT_EQ(report->workload, "phased");
}

TEST(RunSpec, EveryMachineNameBuildsItsConfig)
{
    const std::pair<const char *, MachineConfig> machines[] = {
        {"1dimm", MachineConfig::i7_860_1dimm()},
        {"2dimm", MachineConfig::i7_860_2dimm()},
        {"2dimm-smt", MachineConfig::i7_860_2dimm_smt()},
        {"power7", MachineConfig::power7()},
    };
    for (const auto &[name, config] : machines) {
        const auto spec = parse({"--machine", name});
        ASSERT_TRUE(spec) << name;
        EXPECT_EQ(spec->machine_name, name);
        EXPECT_EQ(spec->contexts(), config.contexts()) << name;
        EXPECT_EQ(spec->machine.mem.channels, config.mem.channels) << name;
    }
}

TEST(RunSpec, EveryWorkloadBuildsTheGraphTheToolsBuilt)
{
    const MachineConfig machine = MachineConfig::i7_860_1dimm();
    const auto build = [](std::vector<const char *> args) {
        const auto spec = parse(args);
        EXPECT_TRUE(spec);
        return tt::tools::buildGraph(*spec, nullptr);
    };

    tt::workloads::SyntheticParams synthetic;
    synthetic.tm1_over_tc = 1.2;
    synthetic.footprint_bytes = 256 * 1024;
    synthetic.pairs = 8;
    expectSameGraph(build({"--workload", "synthetic", "--ratio", "1.2",
                           "--footprint-kb", "256", "--pairs", "8"}),
                    tt::workloads::buildSyntheticSim(machine, synthetic));
    expectSameGraph(build({"--workload", "dft"}),
                    tt::workloads::dftSim(machine));
    expectSameGraph(build({"--workload", "streamcluster", "--dim", "36"}),
                    tt::workloads::streamclusterSim(machine, 36));
    expectSameGraph(build({"--workload", "sift"}),
                    tt::workloads::siftSim(machine));
    expectSameGraph(build({"--workload", "stencil"}),
                    tt::workloads::stencilSim(machine, {}));
    tt::workloads::HistogramParams histogram;
    histogram.pairs = 8;
    expectSameGraph(build({"--workload", "histogram", "--pairs", "8"}),
                    tt::workloads::histogramSim(machine, histogram));

    // ttreport's phased workload: three phases of --pairs pairs each.
    std::vector<tt::workloads::PhaseSpec> phases(3);
    phases[0].name = "low-intensity";
    phases[0].tm1_over_tc = 0.25;
    phases[1].name = "high-intensity";
    phases[1].tm1_over_tc = 1.5;
    phases[2].name = "mid-intensity";
    phases[2].tm1_over_tc = 0.6;
    for (auto &phase : phases)
        phase.pairs = 8;
    const tt::stream::TaskGraph phased =
        build({"--workload", "phased", "--pairs", "8"});
    EXPECT_EQ(phased.phaseCount(), 3);
    EXPECT_EQ(phased.pairCount(), 24);
    expectSameGraph(phased, tt::workloads::buildPhasedSim(machine, phases));
}

TEST(RunSpec, HostRunsBuildTheSyntheticHostLoops)
{
    const auto spec = parse({"--host", "--threads", "2", "--pairs", "4",
                             "--count", "1", "--mtl", "2"});
    ASSERT_TRUE(spec);
    EXPECT_EQ(spec->contexts(), 2);
    tt::workloads::HostSynthetic arrays;
    const tt::stream::TaskGraph graph = tt::tools::buildGraph(*spec, &arrays);
    EXPECT_EQ(graph.pairCount(), 4);
    EXPECT_EQ(graph.phaseCount(), 1);
    ASSERT_NE(arrays.storage, nullptr);
    EXPECT_FALSE(arrays.storage->empty());
    EXPECT_TRUE(static_cast<bool>(graph.task(0).host_work));
}

TEST(RunSpec, EveryPolicyNameBuildsItsPolicy)
{
    const std::pair<std::vector<const char *>, std::string> policies[] = {
        {{"--policy", "conventional"},
         tt::core::ConventionalPolicy(4).name()},
        {{"--policy", "static", "--mtl", "2"},
         tt::core::StaticMtlPolicy(2, 4).name()},
        {{"--policy", "dynamic"},
         tt::core::DynamicThrottlePolicy(4, 16).name()},
        {{"--policy", "online"},
         tt::core::OnlineExhaustivePolicy(4, 16).name()},
        {{"--machine", "2dimm-smt", "--policy", "static", "--mtl", "8"},
         tt::core::StaticMtlPolicy(8, 8).name()},
    };
    for (const auto &[args, name] : policies) {
        const auto spec = parse(args);
        ASSERT_TRUE(spec) << name;
        const auto policy = tt::tools::makePolicy(*spec);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
    }
    const auto offline = parse({"--policy", "offline"});
    ASSERT_TRUE(offline);
    EXPECT_EQ(tt::tools::makePolicy(*offline), nullptr);
}

TEST(RunSpec, ArrivalsMakeTheDynamicPolicySloAware)
{
    const auto shedHolds = [](std::vector<const char *> args) {
        const auto spec = parse(args);
        EXPECT_TRUE(spec);
        auto policy = tt::tools::makePolicy(*spec);
        auto *dynamic =
            dynamic_cast<tt::core::DynamicThrottlePolicy *>(policy.get());
        EXPECT_NE(dynamic, nullptr);
        dynamic->onBackpressure(0.0, tt::core::BackpressureState::Shed, 8);
        return dynamic->overloadHold();
    };
    EXPECT_FALSE(shedHolds({}));
    EXPECT_TRUE(shedHolds({"--arrival-rate", "1000"}));
}

TEST(RunSpec, ArrivalPlanCarriesTheSpecsArrivals)
{
    const auto spec =
        parse({"--arrival-rate", "5000", "--arrival-process", "bursty",
               "--arrival-seed", "3", "--slo-us", "2000",
               "--priority-levels", "2", "--queue-cap", "8"});
    ASSERT_TRUE(spec);
    EXPECT_EQ(spec->admission.queue_cap, 8);
    tt::load::ArrivalConfig config;
    config.seed = 3;
    config.process = tt::load::ArrivalProcess::Bursty;
    config.rate = 2500;
    config.slo_seconds = 2000e-6;
    config.priority_levels = 2;
    const tt::load::ArrivalPlan want =
        tt::load::buildArrivalPlan(config, 16);
    const tt::load::ArrivalPlan got =
        tt::tools::arrivalPlan(*spec, 2500, 16, nullptr);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got.jobs[j].pair, want.jobs[j].pair);
        EXPECT_EQ(got.jobs[j].arrival_seconds, want.jobs[j].arrival_seconds);
        EXPECT_EQ(got.jobs[j].slo_seconds, want.jobs[j].slo_seconds);
        EXPECT_EQ(got.jobs[j].priority, want.jobs[j].priority);
    }
}

TEST(RunSpec, RejectsBadValuesWithAMessage)
{
    // Each names the flag (or value) it rejects.
    const std::pair<std::vector<const char *>, const char *> bad[] = {
        {{"--policy", "static", "--mtl", "0"}, "--mtl"},
        {{"--policy", "static", "--mtl", "9"}, "--mtl"},
        {{"--window", "0"}, "--window"},
        {{"--pairs", "0"}, "--pairs"},
        {{"--workload", "histogram", "--pairs", "0"}, "--pairs"},
        {{"--pairs", "4294967297"}, "--pairs"},
        {{"--ratio", "-1"}, "--ratio"},
        {{"--ratio", "0"}, "--ratio"},
        {{"--footprint-kb", "0"}, "--footprint-kb"},
        {{"--hysteresis", "-1"}, "--hysteresis"},
        {{"--workload", "streamcluster", "--dim", "7"}, "--dim"},
        {{"--machine", "foo"}, "machine 'foo'"},
        {{"--workload", "foo"}, "workload 'foo'"},
        {{"--policy", "foo"}, "policy 'foo'"},
        {{"--arrival-rate", "100", "--arrival-process", "foo"},
         "arrival process 'foo'"},
        {{"--host", "--workload", "dft"}, "--host"},
        {{"--host", "--policy", "offline"}, "offline"},
        {{"--host", "--threads", "0"}, "--threads"},
        {{"--host", "--count", "-1"}, "--count"},
        {{"--queue-cap", "0"}, "--queue-cap"},
        {{"--slo-us", "-1"}, "--slo-us"},
        {{"--service-us", "-1"}, "--service-us"},
        {{"--service-tql-us", "-1"}, "--service-tql-us"},
        {{"--arrival-rate", "-1"}, "--arrival-rate"},
        {{"--priority-levels", "0"}, "--priority-levels"},
        {{"--inject-fail-p", "2"}, "--inject-fail-p"},
        {{"--inject-straggler-x", "0.5"}, "--inject-straggler-x"},
        {{"--max-retries", "-1"}, "--max-retries"},
        {{"--watchdog-ms", "-1"}, "--watchdog-ms"},
        {{"--mtl", "abc"}, "--mtl"},
        {{"--ratio", "fast"}, "--ratio"},
    };
    for (const auto &[args, needle] : bad) {
        std::string error;
        EXPECT_FALSE(parse(args, &error)) << needle;
        EXPECT_NE(error.find(needle), std::string::npos)
            << "'" << error << "' lacks '" << needle << "'";
    }
}

TEST(RunSpec, MtlIsBoundedByTheContextsOfTheMachineOrHost)
{
    EXPECT_TRUE(parse({"--machine", "2dimm-smt", "--mtl", "8"}));
    EXPECT_FALSE(parse({"--mtl", "8"}));
    EXPECT_TRUE(parse({"--host", "--threads", "8", "--mtl", "8"}));
    EXPECT_FALSE(parse({"--host", "--threads", "2", "--mtl", "3"}));
}

} // namespace
