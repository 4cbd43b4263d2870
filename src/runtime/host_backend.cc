#include "runtime/host_backend.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <vector>

#include "fault/fault_plan.hh"
#include "obs/perf/counters.hh"
#include "util/logging.hh"
#include "util/stats.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace tt::runtime {

using stream::Task;
using stream::TaskKind;

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Pin the calling thread; false when the platform refused. */
bool
pinToCpu(int index)
{
#if defined(__linux__)
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(index) % hw, &set);
    // Best effort: failure (e.g. restricted cgroup) is not fatal,
    // but the caller records it so affinity-less runs are visible.
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) ==
           0;
#else
    (void)index;
    return true;
#endif
}

} // namespace

HostThreadBackend::HostThreadBackend(const stream::TaskGraph &graph,
                                     const exec::EngineOptions &options)
    : graph_(graph), options_(options)
{
    tt_assert(options_.threads >= 1, "need at least one worker thread");
}

double
HostThreadBackend::now() const
{
    return nowSeconds() - run_start_;
}

void
HostThreadBackend::beginRun(exec::Engine &engine)
{
    ExecutionBackend::beginRun(engine);
    if (options_.counters != nullptr)
        options_.counters->prepare(options_.threads);
    run_start_ = nowSeconds();
}

HostThreadBackend::TimerToken
HostThreadBackend::after(double seconds, std::function<void()> fn)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(seconds, 0.0)));
    TimerToken token = 0;
    {
        std::lock_guard lock(timer_mutex_);
        token = next_timer_++;
        timers_.emplace(token, Timer{deadline, std::move(fn)});
    }
    timer_cv_.notify_all();
    return token;
}

void
HostThreadBackend::cancel(TimerToken token)
{
    std::lock_guard lock(timer_mutex_);
    timers_.erase(token);
}

void
HostThreadBackend::drive(exec::Engine &engine)
{
    (void)engine;
    std::thread timer([this] { timerLoop(); });
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(options_.threads));
    for (int w = 0; w < options_.threads; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });
    for (auto &worker : workers)
        worker.join();
    {
        // Lock-acquire so the timer thread cannot miss the notify
        // between its stop_ check and its wait.
        std::lock_guard lock(timer_mutex_);
    }
    timer_cv_.notify_all();
    timer.join();
}

void
HostThreadBackend::runDrained()
{
    // Workers park inside Engine::nextAttempt; the engine wakes them
    // itself when run_complete_ flips. Only the timer thread is ours.
    stop_.store(true, std::memory_order_relaxed);
    {
        std::lock_guard lock(timer_mutex_);
    }
    timer_cv_.notify_all();
}

long
HostThreadBackend::pinFailures() const
{
    return pin_failures_.load(std::memory_order_relaxed);
}

void
HostThreadBackend::finalize(exec::RunResult &result)
{
    (void)result;
    // Charge the per-attempt counter-read bracketing to the shared
    // obs.overhead schema (the engine already materialized the name
    // with a zero-delta add).
    if (options_.metrics != nullptr)
        options_.metrics->add(
            "obs.overhead.counter_read_ns",
            static_cast<std::int64_t>(
                counter_read_ns_.load(std::memory_order_relaxed)));
}

void
HostThreadBackend::workerLoop(int index)
{
    if (options_.pin_affinity && !pinToCpu(index)) {
        pin_failures_.fetch_add(1, std::memory_order_relaxed);
        std::call_once(pin_warn_once_, [] {
            tt_warn("pthread_setaffinity_np failed; workers run "
                    "unpinned (results may be noisier)");
        });
    }

    // Counter fds are per-thread state: open them here (on the
    // monitored thread itself) and close them on every exit path.
    obs::perf::CounterProvider *counters = options_.counters;
    if (counters != nullptr)
        counters->attachWorker(index);
    struct Detach
    {
        obs::perf::CounterProvider *counters;
        int index;
        ~Detach()
        {
            if (counters != nullptr)
                counters->detachWorker(index);
        }
    } detach{counters, index};

    // Lock-free fast path: nextAttempt pops the ready rings and takes
    // the sharded MTL gate; onAttemptDone completes memory attempts
    // without the scheduler mutex. The worker blocks (parked inside
    // the engine) only when there is genuinely nothing runnable.
    exec::AttemptSpec spec;
    while (engine_->nextAttempt(index, spec)) {
        const exec::AttemptOutcome outcome = runAttempt(index, spec);
        engine_->onAttemptDone(index, outcome);
    }
}

exec::AttemptOutcome
HostThreadBackend::runAttempt(int index, const exec::AttemptSpec &spec)
{
    exec::AttemptOutcome out;
    const Task &task = graph_.task(spec.task);
    // Bracket exactly what the timestamps bracket: the attempt body
    // (including injected stalls), not the pair-retry re-gather.
    obs::perf::CounterProvider *counters = options_.counters;
    const bool counting = counters != nullptr && counters->available();
    try {
        if (spec.rerun_memory_first) {
            // Pair-granularity retry: the compute body consumes data
            // its memory partner gathered, and the failed attempt may
            // have clobbered it mid-flight. Re-execute the memory
            // body first so the retry sees a freshly gathered pair.
            const Task &mem =
                graph_.task(graph_.memoryTaskOf(task.pair));
            if (mem.host_work)
                mem.host_work();
        }
        obs::perf::CounterSet before;
        if (counting) {
            const auto t0 = std::chrono::steady_clock::now();
            before = counters->read(index);
            counter_read_ns_.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
        }
        out.start = now();
        if (spec.faults.stall)
            sleepSeconds(spec.stall_seconds);
        if (spec.faults.fail)
            throw fault::InjectedFault(spec.task, spec.attempt);
        if (task.host_work)
            task.host_work();
        if (spec.faults.latency_factor > 1.0) {
            const double elapsed = now() - out.start;
            sleepSeconds(elapsed * (spec.faults.latency_factor - 1.0));
        }
        out.end = now();
        if (counting) {
            const auto t0 = std::chrono::steady_clock::now();
            out.counters = counters->read(index) - before;
            out.has_counters = true;
            counter_read_ns_.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
        }
    } catch (const std::exception &error) {
        out.failed = true;
        out.error = error.what();
        out.end = now();
    } catch (...) {
        out.failed = true;
        out.error = "non-standard exception";
        out.end = now();
    }
    return out;
}

void
HostThreadBackend::sleepSeconds(double seconds)
{
    // Chunked so stalled/straggling workers notice a failed run (or
    // simply finish) within ~10 ms instead of sleeping the full span.
    const double deadline = nowSeconds() + seconds;
    while (!engine_->runFailed()) {
        const double left = deadline - nowSeconds();
        if (left <= 0.0)
            return;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(left, 10e-3)));
    }
}

void
HostThreadBackend::timerLoop()
{
    std::unique_lock lock(timer_mutex_);
    while (!stop_.load(std::memory_order_relaxed)) {
        if (timers_.empty()) {
            timer_cv_.wait(lock);
            continue;
        }
        auto best = timers_.begin();
        for (auto it = std::next(best); it != timers_.end(); ++it)
            if (it->second.deadline < best->second.deadline)
                best = it;
        const auto deadline = best->second.deadline;
        if (std::chrono::steady_clock::now() < deadline) {
            // Wakes early on new timers, cancellations and stop; the
            // loop re-derives the earliest deadline each pass.
            timer_cv_.wait_until(lock, deadline);
            continue;
        }
        std::function<void()> fn = std::move(best->second.fn);
        timers_.erase(best);
        lock.unlock();
        fn();
        lock.lock();
    }
}

} // namespace tt::runtime
