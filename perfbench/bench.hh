/**
 * @file
 * Shared pieces of the whole-stack benchmark: the run options, the
 * result report (end-to-end and per-layer metrics, output checks),
 * the in-memory span recorder of the traced run, and small numeric
 * helpers. Each workload lives in its own file and fills one Report.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tt::exec {
struct RunResult;
}

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Only build the workload's inputs and report setup_s. */
    bool setup_only = false;
    /** Where the traced run dumps its spans (Chrome trace JSON). */
    std::string trace_out;
};

/** Host steady-clock seconds. */
inline double
hostNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span recorder for the traced run. Spans are recorded only
 * from the benchmark's own files, around calls into the program's
 * modules; all of them are opened and closed on the benchmark's main
 * thread, so nesting follows a stack. `run` groups the spans of one
 * measured repetition (the request id of the trace).
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        double start = 0.0; ///< host seconds
        double end = 0.0;
        int parent = -1; ///< index of the enclosing span, -1 at top
        int run = 0;
    };

    int begin(const char *name);
    void end(int id);
    void setRun(int run) { run_ = run; }

    /** Total seconds and call count of the spans named `name`. */
    double totalSeconds(const char *name) const;
    long count(const char *name) const;

    /** Write the spans as a Chrome trace ("X" events, microseconds
     *  from the first span); returns false when the file cannot be
     *  written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int run_ = 0;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** What one workload run measured and checked. */
struct Report
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    /** End-to-end metrics (printed with --trace 0). */
    std::map<std::string, Metric> end_to_end;
    /** Per-layer metrics (printed with --trace 1). */
    std::map<std::string, Metric> per_layer;

    /** Operations attempted and failed (pairs offered, runs and
     *  output checks); see README.md. */
    long attempted = 0;
    long failed = 0;

    double setup_seconds = 0.0;
    /** Peak resident set, MiB, taken when the workload's runs had
     *  executed one at a time (see peakRssMb()). */
    double peak_rss_mb = 0.0;

    void e2e(const std::string &name, double value, const char *unit)
    {
        end_to_end[name] = {value, unit};
    }
    void layer(const std::string &name, double value, const char *unit)
    {
        per_layer[name] = {value, unit};
    }

    /** Count one output check; a failing check prints `what` on
     *  stderr and counts as a failed operation. */
    bool check(bool ok, const std::string &what);
};

/** Median of `xs` (0 when empty). */
double median(std::vector<double> xs);

/** Peak resident set of this process, MiB (VmHWM). */
double peakRssMb();

/** FNV-1a digest of simulated results; identical inputs give
 *  identical digests, so it certifies determinism across passes. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** One timed repetition, with the reference kernel's time measured
 *  on the same thread just before it. */
struct HostSample
{
    double seconds = 0.0;
    double reference = 0.0;
};

/**
 * Host seconds of one fixed reference kernel (an event heap of
 * std::function callbacks, written here and independent of the
 * program). Timed next to every repetition, it tracks how fast the
 * machine is running at that moment. With `threads` > 1 the kernel
 * runs on that many threads at once and the mean time is returned,
 * for repetitions that occupy every CPU.
 */
double referenceSeconds(int threads = 1);

/**
 * Host seconds at the reference speed: kReferenceSeconds times the
 * median over `samples` of seconds / reference. Dividing each sample
 * by its own reference cancels the machine's speed at that moment;
 * it does not cancel a change in the program's own speed. Prints the
 * raw samples and their count under `label`.
 */
double atReferenceSpeed(const std::string &label,
                        const std::vector<HostSample> &samples);

/** Median of raw host-seconds `seconds`; prints the samples and their
 *  count under `label`. */
double hostMedian(const std::string &label,
                  const std::vector<double> &seconds);

/** Repetition loop bound: keep going while another repetition of the
 *  last one's length still fits in the budget (at least `min_reps`). */
bool moreReps(double started, double budget, double last_rep,
              int reps_done, int min_reps);

int runSimFig14(const Options &options, Report &report);
int runSimOpenloop(const Options &options, Report &report);
int runHostDispatch(const Options &options, Report &report);

/** Per-layer obs.cp.*: mean critical-path components of the jobs of
 *  `run` whose response is at or above `p99`, microseconds. */
void reportTailCriticalPath(Report &report, const tt::exec::RunResult &run,
                            double p99);

/** Standalone per-operation probes of the two hottest sim layers
 *  (per-layer metrics sim.probe_event_ns and mem.probe_req_ns). */
void runSimProbes(std::uint64_t seed, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
