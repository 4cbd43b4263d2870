/**
 * @file
 * Forwarding exec::ExecutionBackend used by the traced run: every
 * call goes to the wrapped backend unchanged, and drive() and
 * startAttempt() are recorded as spans. Timer callbacks are counted
 * (they may fire on the host backend's timer thread, so the count is
 * atomic and no span is opened there).
 */

#ifndef PERFBENCH_TRACED_BACKEND_HH
#define PERFBENCH_TRACED_BACKEND_HH

#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "bench.hh"
#include "exec/engine.hh"

namespace perfbench {

class TracedBackend final : public tt::exec::ExecutionBackend
{
  public:
    TracedBackend(tt::exec::ExecutionBackend &inner, Tracer &tracer,
                  const char *drive_span, const char *attempt_span)
        : inner_(inner), tracer_(tracer), drive_span_(drive_span),
          attempt_span_(attempt_span)
    {
    }

    long timerCallbacks() const
    {
        return timer_callbacks_->load(std::memory_order_relaxed);
    }

    int contexts() const override { return inner_.contexts(); }
    double now() const override { return inner_.now(); }
    void beginRun(tt::exec::Engine &engine) override
    {
        ExecutionBackend::beginRun(engine);
        inner_.beginRun(engine);
    }
    void startAttempt(int context,
                      const tt::exec::AttemptSpec &spec) override
    {
        ScopedSpan span(&tracer_, attempt_span_);
        inner_.startAttempt(context, spec);
    }
    TimerToken after(double seconds, std::function<void()> fn) override
    {
        // The callback may outlive this wrapper's stack frame on the
        // host timer thread, so it shares ownership of the counter.
        return inner_.after(
            seconds, [count = timer_callbacks_, fn = std::move(fn)] {
                count->fetch_add(1, std::memory_order_relaxed);
                fn();
            });
    }
    void cancel(TimerToken token) override { inner_.cancel(token); }
    void drive(tt::exec::Engine &engine) override
    {
        ScopedSpan span(&tracer_, drive_span_);
        inner_.drive(engine);
    }
    void runDrained() override { inner_.runDrained(); }
    bool pullDispatch() const override { return inner_.pullDispatch(); }
    void pairCompleted(const tt::stream::Task &memory_task) override
    {
        inner_.pairCompleted(memory_task);
    }
    long pinFailures() const override { return inner_.pinFailures(); }
    bool watchdogTerminatesProcess() const override
    {
        return inner_.watchdogTerminatesProcess();
    }
    void finalize(tt::exec::RunResult &result) override
    {
        inner_.finalize(result);
    }

  private:
    tt::exec::ExecutionBackend &inner_;
    Tracer &tracer_;
    const char *drive_span_;
    const char *attempt_span_;
    std::shared_ptr<std::atomic<long>> timer_callbacks_ =
        std::make_shared<std::atomic<long>>(0);
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_BACKEND_HH
