/**
 * @file
 * One run of ttsim or ttreport: a workload on a machine under a
 * scheduling policy, closed loop or fed by open-loop arrivals. Both
 * tools read their shared run flags with parseRunSpec(), which checks
 * every range (exit 2, not a library assertion), and build runs from
 * the spec with the functions below. A run flag a tool does not accept
 * (ttreport has no --host, --priority-levels or --inject-*) reads as
 * its default.
 */

#ifndef TT_TOOLS_RUN_SPEC_HH
#define TT_TOOLS_RUN_SPEC_HH

#include <memory>
#include <optional>
#include <string>

#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "fault/fault_plan.hh"
#include "load/admission.hh"
#include "load/arrival.hh"
#include "stream/task_graph.hh"
#include "util/flags.hh"
#include "workloads/synthetic.hh"

namespace tt::tools {

/** What the run flags say about one run (see ttsim.cc for each flag). */
struct RunSpec
{
    std::string machine_name;
    cpu::MachineConfig machine;
    bool host = false; ///< real threads instead of the machine
    int threads = 4;
    int count = 8; ///< host compute-loop repetitions per task

    /** Hardware contexts the policy throttles. */
    int contexts() const { return host ? threads : machine.contexts(); }

    std::string workload;
    double ratio = 0.5;
    std::uint64_t footprint_bytes = 512 * 1024;
    int pairs = 128; ///< synthetic, histogram and each phased phase
    int dim = 128;

    std::string policy;
    int mtl = 1;
    int window = 16;
    int hysteresis = 0;

    double arrival_rate = 0.0;    ///< jobs/s; 0 keeps the run closed
    load::ArrivalConfig arrivals; ///< its rate is set per plan
    load::AdmissionConfig admission;

    fault::FaultConfig faults;
    int max_retries = 3;
    double watchdog_seconds = 0.0;
    bool health = false;
};

/** The run flags as a spec; nullopt and one message in `*error` when
 *  a name is unknown or a value is not a number or out of range. */
std::optional<RunSpec> parseRunSpec(const Flags &flags,
                                    const std::string &default_workload,
                                    std::string *error);

/** The workload's graph. A host run's task bodies touch arrays owned
 *  by `*host_arrays`, which must outlive every run of the graph. */
stream::TaskGraph buildGraph(const RunSpec &spec,
                             workloads::HostSynthetic *host_arrays);

/** A fresh policy (adaptive ones carry state from run to run),
 *  SLO-aware when the spec has arrivals; nullptr for `offline`, which
 *  is ttsim's exhaustive search rather than a policy. */
std::unique_ptr<core::SchedulingPolicy> makePolicy(const RunSpec &spec);

/** The spec's arrivals at `rate` jobs/s, one job per pair. */
load::ArrivalPlan arrivalPlan(const RunSpec &spec, double rate, int pairs,
                              const fault::FaultPlan *fault_plan);

} // namespace tt::tools

#endif // TT_TOOLS_RUN_SPEC_HH
