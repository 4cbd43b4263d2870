#include "tools/run_spec.hh"

#include <limits>
#include <sstream>
#include <type_traits>

#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "util/logging.hh"
#include "workloads/dft.hh"
#include "workloads/histogram.hh"
#include "workloads/phased.hh"
#include "workloads/sift.hh"
#include "workloads/stencil.hh"
#include "workloads/streamcluster.hh"
#include "workloads/tables.hh"

namespace tt::tools {

namespace {

using PolicyPtr = std::unique_ptr<core::SchedulingPolicy>;

workloads::SyntheticParams
syntheticParams(const RunSpec &s)
{
    return {.tm1_over_tc = s.ratio, .footprint_bytes = s.footprint_bytes,
            .pairs = s.pairs};
}

/** A name a flag may take and what it builds. */
template <typename Make>
struct Entry
{
    const char *name;
    Make make;
};

const Entry<cpu::MachineConfig (*)()> kMachines[] = {
    {"1dimm", &cpu::MachineConfig::i7_860_1dimm},
    {"2dimm", &cpu::MachineConfig::i7_860_2dimm},
    {"2dimm-smt", &cpu::MachineConfig::i7_860_2dimm_smt},
    {"power7", &cpu::MachineConfig::power7},
};

/** Simulator graphs; a host run builds the synthetic host loops. */
const Entry<stream::TaskGraph (*)(const RunSpec &)> kWorkloads[] = {
    {"synthetic",
     [](const RunSpec &s) {
         return workloads::buildSyntheticSim(s.machine, syntheticParams(s));
     }},
    {"dft", [](const RunSpec &s) { return workloads::dftSim(s.machine); }},
    {"streamcluster",
     [](const RunSpec &s) {
         return workloads::streamclusterSim(s.machine, s.dim);
     }},
    {"sift", [](const RunSpec &s) { return workloads::siftSim(s.machine); }},
    {"stencil",
     [](const RunSpec &s) { return workloads::stencilSim(s.machine, {}); }},
    {"histogram",
     [](const RunSpec &s) {
         return workloads::histogramSim(s.machine, {.pairs = s.pairs});
     }},
    // Three phases crossing the IdleBound in both directions, so an
    // adaptive policy has real MTL transitions to audit.
    {"phased",
     [](const RunSpec &s) {
         const int p = s.pairs;
         return workloads::buildPhasedSim(
             s.machine,
             {{.name = "low-intensity", .tm1_over_tc = 0.25, .pairs = p},
              {.name = "high-intensity", .tm1_over_tc = 1.5, .pairs = p},
              {.name = "mid-intensity", .tm1_over_tc = 0.6, .pairs = p}});
     }},
};

/** `offline` is ttsim's exhaustive search, not a policy. */
const Entry<PolicyPtr (*)(const RunSpec &)> kPolicies[] = {
    {"conventional",
     [](const RunSpec &s) -> PolicyPtr {
         return std::make_unique<core::ConventionalPolicy>(s.contexts());
     }},
    {"static",
     [](const RunSpec &s) -> PolicyPtr {
         return std::make_unique<core::StaticMtlPolicy>(s.mtl, s.contexts());
     }},
    {"dynamic",
     [](const RunSpec &s) -> PolicyPtr {
         auto dynamic = std::make_unique<core::DynamicThrottlePolicy>(
             s.contexts(), s.window);
         dynamic->setIdleBoundHysteresis(s.hysteresis);
         // Under backpressure the dynamic policy pins the last
         // selected MTL instead of probing through the overload.
         dynamic->setSloAware(s.arrival_rate > 0.0);
         return dynamic;
     }},
    {"online",
     [](const RunSpec &s) -> PolicyPtr {
         return std::make_unique<core::OnlineExhaustivePolicy>(
             s.contexts(), s.window);
     }},
    {"offline", nullptr},
};

template <typename Make, std::size_t N>
const Entry<Make> *
lookup(const Entry<Make> (&table)[N], const std::string &name)
{
    for (const Entry<Make> &entry : table)
        if (name == entry.name)
            return &entry;
    return nullptr;
}

/** Reads run flags, keeping the first problem found. */
struct Reader
{
    const Flags &flags;
    std::string problem;

    void reject(const std::string &message)
    {
        if (problem.empty())
            problem = message;
    }

    /** `--name` in [min, max]; `fallback` and a problem otherwise. */
    template <typename T>
    T get(const char *name, T fallback, T min,
          T max = std::numeric_limits<T>::max())
    {
        // Checked as a double, so an integer cannot wrap into range.
        const double value =
            std::is_integral_v<T>
                ? static_cast<double>(flags.getInt(name, fallback))
                : flags.getDouble(name, fallback);
        if (value >= min && value <= max)
            return static_cast<T>(value);
        std::ostringstream message;
        message << "--" << name << " must be ";
        if (!(value >= min) && max == std::numeric_limits<T>::max())
            message << ">= " << min;
        else
            message << "in [" << min << ", " << max << "]";
        reject(message.str() + ", got " + flags.getString(name, ""));
        return fallback;
    }

    /** The entry called `name`; nullptr and a problem if unknown. */
    template <typename Make, std::size_t N>
    const Entry<Make> *find(const Entry<Make> (&table)[N], const char *what,
                            const std::string &name)
    {
        const Entry<Make> *entry = lookup(table, name);
        std::string known;
        for (const Entry<Make> &e : table)
            known += (known.empty() ? "" : ", ") + std::string(e.name);
        if (entry == nullptr)
            reject("unknown " + std::string(what) + " '" + name +
                   "' (known: " + known + ")");
        return entry;
    }
};

} // namespace

std::optional<RunSpec>
parseRunSpec(const Flags &flags, const std::string &default_workload,
             std::string *error)
{
    RunSpec spec;
    Reader reader{flags, {}};
    spec.machine_name = flags.getString("machine", "1dimm");
    if (const auto *machine =
            reader.find(kMachines, "machine", spec.machine_name))
        spec.machine = machine->make();
    spec.host = flags.getBool("host");
    spec.threads = reader.get("threads", 4, 1);
    spec.count = reader.get("count", 8, 0);

    spec.workload = flags.getString("workload", default_workload);
    if (reader.find(kWorkloads, "workload", spec.workload) && spec.host &&
        spec.workload != "synthetic")
        reader.reject("--host supports only the synthetic workload (the "
                      "others carry sim descriptors only)");
    spec.ratio = flags.getDouble("ratio", 0.5);
    if (!(spec.ratio > 0.0))
        reader.reject("--ratio must be > 0, got " +
                      flags.getString("ratio", ""));
    if (spec.host && flags.has("ratio"))
        reader.reject("--ratio is simulator-only; size the --host loops "
                      "with --count and --footprint-kb");
    spec.footprint_bytes =
        static_cast<std::uint64_t>(reader.get("footprint-kb", 512, 1)) * 1024;
    spec.pairs = reader.get("pairs", 128, 1);
    spec.dim = reader.get("dim", 128, 1);
    std::string dims;
    bool known_dim = false;
    for (const auto &entry : workloads::tables::kStreamcluster) {
        known_dim = known_dim || entry.dim == spec.dim;
        dims += (dims.empty() ? "" : ", ") + std::to_string(entry.dim);
    }
    if (!known_dim)
        reader.reject("--dim must be a Table II dimension (" + dims +
                      "), got " + std::to_string(spec.dim));

    spec.policy = flags.getString("policy", "dynamic");
    if (reader.find(kPolicies, "policy", spec.policy) && spec.host &&
        spec.policy == "offline")
        reader.reject("--policy offline is simulator-only");
    spec.mtl = reader.get("mtl", 1, 1, spec.contexts());
    spec.window = reader.get("window", 16, 1);
    spec.hysteresis = reader.get("hysteresis", 0, 0);

    spec.arrival_rate = reader.get("arrival-rate", 0.0, 0.0);
    spec.arrivals.seed =
        static_cast<std::uint64_t>(flags.getInt("arrival-seed", 1));
    const std::string process = flags.getString("arrival-process", "poisson");
    if (!load::parseArrivalProcess(process.c_str(), spec.arrivals.process))
        reader.reject("unknown arrival process '" + process + "'");
    spec.arrivals.slo_seconds = reader.get("slo-us", 0.0, 0.0) * 1e-6;
    spec.arrivals.priority_levels = reader.get("priority-levels", 1, 1);
    spec.admission.queue_cap = reader.get("queue-cap", 64, 1);
    spec.admission.service_tml = reader.get("service-us", 0.0, 0.0) * 1e-6;
    spec.admission.service_tql =
        reader.get("service-tql-us", 0.0, 0.0) * 1e-6;

    fault::FaultConfig &faults = spec.faults;
    faults.seed = static_cast<std::uint64_t>(flags.getInt("inject-seed", 0));
    faults.fail_p = reader.get("inject-fail-p", 0.0, 0.0, 1.0);
    faults.straggler_p = reader.get("inject-straggler", 0.0, 0.0, 1.0);
    faults.straggler_factor = reader.get("inject-straggler-x", 4.0, 1.0);
    faults.corrupt_p = reader.get("inject-corrupt-p", 0.0, 0.0, 1.0);
    faults.stall_p = reader.get("inject-stall-p", 0.0, 0.0, 1.0);
    faults.stall_seconds = reader.get("inject-stall-ms", 50.0, 0.0) * 1e-3;
    faults.arrival_burst_p =
        reader.get("inject-arrival-burst", 0.0, 0.0, 1.0);
    faults.deadline_storm_p =
        reader.get("inject-deadline-storm", 0.0, 0.0, 1.0);
    spec.max_retries = reader.get("max-retries", 3, 0);
    spec.watchdog_seconds = reader.get("watchdog-ms", 0.0, 0.0) * 1e-3;
    spec.health = flags.getBool("health");

    // A non-numeric value is reported before any range.
    *error = flags.error().empty() ? reader.problem : flags.error();
    if (!error->empty())
        return std::nullopt;
    return spec;
}

stream::TaskGraph
buildGraph(const RunSpec &spec, workloads::HostSynthetic *host_arrays)
{
    if (spec.host) {
        tt_assert(host_arrays != nullptr, "a host graph needs its arrays");
        *host_arrays =
            workloads::buildSyntheticHost(syntheticParams(spec), spec.count);
        return host_arrays->graph;
    }
    const auto *workload = lookup(kWorkloads, spec.workload);
    tt_assert(workload != nullptr, "unknown workload ", spec.workload);
    return workload->make(spec);
}

std::unique_ptr<core::SchedulingPolicy>
makePolicy(const RunSpec &spec)
{
    const auto *policy = lookup(kPolicies, spec.policy);
    tt_assert(policy != nullptr, "unknown policy ", spec.policy);
    return policy->make != nullptr ? policy->make(spec) : nullptr;
}

load::ArrivalPlan
arrivalPlan(const RunSpec &spec, double rate, int pairs,
            const fault::FaultPlan *fault_plan)
{
    load::ArrivalConfig config = spec.arrivals;
    config.rate = rate;
    return load::buildArrivalPlan(config, pairs, fault_plan);
}

} // namespace tt::tools
