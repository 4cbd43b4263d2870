/**
 * @file
 * HostThreadBackend: the exec::Engine execution substrate backed by
 * real worker threads and the steady clock.
 *
 * One software thread per configured context, pinned with CPU
 * affinity where the platform supports it. Each worker pulls its own
 * attempts: it loops on Engine::nextAttempt() -- lock-free ready
 * rings and sharded MTL admission, no scheduler mutex on the
 * per-task path -- executes the body, and reports through
 * Engine::onAttemptDone(). A dedicated timer thread services
 * the engine's one-shot timers (retry backoff, watchdog deadline,
 * time-series sampling).
 */

#ifndef TT_RUNTIME_HOST_BACKEND_HH
#define TT_RUNTIME_HOST_BACKEND_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>

#include "exec/engine.hh"
#include "stream/task_graph.hh"

namespace tt::runtime {

/** Real-thread execution backend (the paper's prototype, Sec. V). */
class HostThreadBackend final : public exec::ExecutionBackend
{
  public:
    /** Both references are borrowed and must outlive the backend. */
    HostThreadBackend(const stream::TaskGraph &graph,
                      const exec::EngineOptions &options);

    int contexts() const override { return options_.threads; }
    double now() const override;
    void beginRun(exec::Engine &engine) override;
    TimerToken after(double seconds,
                     std::function<void()> fn) override;
    void cancel(TimerToken token) override;
    void drive(exec::Engine &engine) override;
    void runDrained() override;
    long pinFailures() const override;
    void finalize(exec::RunResult &result) override;

    /** Wedged worker threads cannot be unwound: the watchdog must
     *  exit the process after dumping diagnostics. */
    bool watchdogTerminatesProcess() const override { return true; }

    /** Workers pull from the engine's lock-free rings. */
    bool pullDispatch() const override { return true; }

  private:
    struct Timer
    {
        std::chrono::steady_clock::time_point deadline;
        std::function<void()> fn;
    };

    void workerLoop(int index);
    void timerLoop();
    /** Execute one attempt body with its injected faults (no locks);
     *  `index` identifies the worker for counter attribution. */
    exec::AttemptOutcome runAttempt(int index,
                                    const exec::AttemptSpec &spec);
    /** Interruptible sleep used by stalls, stragglers and backoff. */
    void sleepSeconds(double seconds);

    const stream::TaskGraph &graph_;
    const exec::EngineOptions &options_;

    std::atomic<bool> stop_{false};
    std::atomic<long> pin_failures_{0};
    /** Wall ns spent inside counter reads (obs.overhead.*). */
    std::atomic<std::uint64_t> counter_read_ns_{0};
    std::once_flag pin_warn_once_;

    std::mutex timer_mutex_;
    std::condition_variable timer_cv_;
    std::map<TimerToken, Timer> timers_;
    TimerToken next_timer_ = 1; ///< 0 is the "no timer" sentinel

    double run_start_ = 0.0; ///< steady-clock origin, seconds
};

} // namespace tt::runtime

#endif // TT_RUNTIME_HOST_BACKEND_HH
