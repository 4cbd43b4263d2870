#include "exec/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/sample_guard.hh"
#include "obs/live.hh"
#include "obs/timeseries.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace tt::exec {

using stream::Task;
using stream::TaskId;
using stream::TaskKind;

namespace {

std::size_t
ringCapacity(const EngineOptions &options, int task_count)
{
    const auto wanted = std::min(
        options.trace_capacity, static_cast<std::size_t>(task_count));
    return std::max<std::size_t>(1, wanted);
}

/**
 * Wall-clock nanoseconds for the obs.overhead.* self-observability
 * counters: the real cost of observability code, measured with the
 * steady clock on every backend (simulated time would hide it).
 */
std::uint64_t
wallNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
ExecutionBackend::startAttempt(int context, const AttemptSpec &spec)
{
    (void)context;
    (void)spec;
    tt_assert(false, "startAttempt called on a backend that pulls its "
                     "own attempts");
}

void
ExecutionBackend::terminateProcess(int exit_code)
{
    std::fflush(nullptr);
    std::_Exit(exit_code);
}

Engine::Engine(const stream::TaskGraph &graph,
               core::SchedulingPolicy &policy,
               const EngineOptions &options)
    : graph_(graph), policy_(policy), options_(options)
{
    tt_assert(options_.max_task_retries >= 0,
              "retry budget cannot be negative");
    tt_assert(options_.retry_backoff_seconds >= 0.0,
              "backoff cannot be negative");
    tt_assert(options_.timeseries_out == nullptr ||
                  options_.timeseries_interval_seconds > 0.0,
              "sampling interval must be positive");
    tt_assert(options_.live_sink == nullptr ||
                  options_.live_interval_seconds > 0.0,
              "live snapshot interval must be positive");

    const auto n_tasks = static_cast<std::size_t>(graph_.taskCount());
    deps_left_ = std::vector<std::atomic<int>>(n_tasks);
    succs_.assign(n_tasks, {});
    attempts_.assign(n_tasks, 0);
    task_start_.assign(n_tasks, 0.0);
    task_end_.assign(n_tasks, 0.0);
    task_mtl_.assign(n_tasks, 0);
    pair_mem_mtl_.assign(static_cast<std::size_t>(graph_.pairCount()), 0);
    for (const Task &task : graph_.tasks()) {
        deps_left_[static_cast<std::size_t>(task.id)].store(
            static_cast<int>(task.deps.size()),
            std::memory_order_relaxed);
        for (TaskId dep : task.deps)
            succs_[static_cast<std::size_t>(dep)].push_back(task.id);
    }

    if (options_.arrival_plan != nullptr &&
        !options_.arrival_plan->empty()) {
        open_loop_ = true;
        tt_assert(graph_.phaseCount() == 1,
                  "open-loop runs require a single-phase graph "
                  "(arrivals replace phase barriers)");
        tt_assert(static_cast<int>(options_.arrival_plan->size()) ==
                      graph_.pairCount(),
                  "arrival plan offers ",
                  options_.arrival_plan->size(), " jobs for ",
                  graph_.pairCount(), " pairs");
        const auto n_pairs =
            static_cast<std::size_t>(graph_.pairCount());
        job_arrival_stamp_.assign(n_pairs, 0.0);
        job_slo_.assign(n_pairs, 0.0);
        for (const load::JobSpec &job : options_.arrival_plan->jobs) {
            tt_assert(job.pair >= 0 && job.pair < graph_.pairCount(),
                      "arrival plan names pair ", job.pair,
                      " outside the graph");
            tt_assert(
                deps_left_[static_cast<std::size_t>(
                               graph_.memoryTaskOf(job.pair))]
                        .load(std::memory_order_relaxed) == 0,
                "open-loop pairs must have dependency-free memory "
                "tasks");
        }
    }
}

void
Engine::activatePhaseLocked(int phase, double now)
{
    current_phase_ = phase;
    // Count first, publish the barrier count, then enqueue: a ring
    // push is instantly poppable by a worker whose completion
    // decrements phase_remaining_, so the count must be final before
    // the first task escapes.
    int count = 0;
    for (const Task &task : graph_.tasks())
        if (task.phase == phase)
            ++count;
    phase_remaining_.store(count, std::memory_order_seq_cst);
    // Snapshot the initially-ready set BEFORE the first enqueue. An
    // enqueued task is instantly poppable: a worker can run and
    // complete it lock-free while this loop is still scanning,
    // releasing a same-phase compute successor whose deps_left_ then
    // reads zero -- tripping the memory-only invariant, which holds
    // for the pre-activation state only.
    std::vector<const Task *> initially_ready;
    for (const Task &task : graph_.tasks()) {
        if (task.phase != phase)
            continue;
        if (deps_left_[static_cast<std::size_t>(task.id)].load(
                std::memory_order_relaxed) == 0) {
            tt_assert(task.kind == TaskKind::Memory,
                      "only memory tasks can be initially ready");
            initially_ready.push_back(&task);
        }
    }
    for (const Task *task : initially_ready) {
        // Closed-loop spans: the pair's "arrival" is the barrier
        // instant its memory task became runnable. Open before
        // the enqueue -- the completing worker appends to it.
        openSpan(task->pair, 0, now);
        enqueueMemoryReady(task->id);
    }
    tt_assert(count > 0 || graph_.empty(), "phase ", phase,
              " has no tasks");
}

void
Engine::enqueueMemoryReady(TaskId id)
{
    const bool ok = ready_memory_ring_->tryPush(id);
    tt_assert(ok, "memory ready ring overflow (sized to pair count)");
    wakeWorkers();
}

void
Engine::enqueueComputeReady(TaskId id)
{
    const bool ok = ready_compute_ring_->tryPush(id);
    tt_assert(ok, "compute ready ring overflow (sized to pair count)");
    wakeWorkers();
}

void
Engine::processArrivalsLocked(double upto)
{
    const auto &jobs = options_.arrival_plan->jobs;
    while (next_job_ < jobs.size() &&
           jobs[next_job_].arrival_seconds <= upto + 1e-12) {
        admitJobLocked(jobs[next_job_]);
        ++next_job_;
    }
}

void
Engine::scheduleNextArrivalLocked(double from)
{
    const auto &jobs = options_.arrival_plan->jobs;
    if (next_job_ >= jobs.size())
        return;
    scheduled_arrival_ = jobs[next_job_].arrival_seconds;
    arrival_token_ =
        backend_->after(std::max(scheduled_arrival_ - from, 0.0),
                        [this] { onArrivalTimer(); });
}

void
Engine::onArrivalTimer()
{
    std::lock_guard lock(mutex_);
    arrival_token_ = 0;
    if (finished_)
        return;
    if (run_failed_.load(std::memory_order_relaxed)) {
        // Stop offering work into a failed run; the jobs never
        // reached admission, so they are abandoned, not shed.
        next_job_ = options_.arrival_plan->size();
        maybeFinishLocked();
        return;
    }
    // Decisions key off the *plan* offset the timer targeted, not
    // the (jittery on host) clock reading, so both backends feed the
    // admission model identical inputs.
    processArrivalsLocked(scheduled_arrival_);
    scheduleNextArrivalLocked(scheduled_arrival_);
    tryScheduleLocked();
    maybeFinishLocked();
}

void
Engine::openSpan(int pair, int priority, double arrival)
{
    auto &span = open_span_[static_cast<std::size_t>(pair)];
    span = obs::JobSpan{};
    span.pair = pair;
    span.priority = priority;
    span.open_loop = open_loop_;
    span.arrival = arrival;
    // Release pairs with the fast path's acquire load: a worker that
    // sees the flag also sees the initialized span fields.
    span_open_[static_cast<std::size_t>(pair)].store(
        true, std::memory_order_release);
}

void
Engine::spanAttempt(stream::TaskId id, int worker,
                         const AttemptOutcome &outcome, bool failed,
                         double backoff_seconds)
{
    const Task &task = graph_.task(id);
    const auto pair = static_cast<std::size_t>(task.pair);
    if (!span_open_[pair].load(std::memory_order_acquire))
        return;
    obs::SpanAttempt attempt;
    attempt.task = id;
    attempt.is_memory = task.kind == TaskKind::Memory;
    attempt.attempt = attempts_[static_cast<std::size_t>(id)];
    attempt.worker = worker;
    attempt.start = outcome.start;
    attempt.end = outcome.end;
    attempt.failed = failed;
    attempt.backoff_seconds = backoff_seconds;
    if (outcome.has_counters) {
        attempt.has_counters = true;
        attempt.counters = outcome.counters;
    }
    open_span_[pair].attempts.push_back(attempt);
}

void
Engine::closeSpan(int pair, double end, obs::SpanOutcome outcome)
{
    const auto index = static_cast<std::size_t>(pair);
    if (!span_open_[index].load(std::memory_order_acquire))
        return;
    obs::JobSpan &span = open_span_[index];
    span.end = end;
    span.outcome = outcome;
    span.critical_path = obs::computeCriticalPath(span);
    const std::uint64_t t0 = wallNanos();
    span_buffer_->record(std::move(span));
    obs_trace_record_ns_ += wallNanos() - t0;
    span = obs::JobSpan{};
    span_open_[index].store(false, std::memory_order_release);
}

void
Engine::admitJobLocked(const load::JobSpec &job)
{
    const load::AdmissionOutcome out = admission_->onArrival(job);

    JobRecord record;
    record.pair = job.pair;
    record.arrival_seconds = job.arrival_seconds;
    record.priority = job.priority;
    record.decision = out.decision;
    record.shed_reason = out.shed_reason;
    record.state = out.state;
    record.backlog = out.backlog;
    record.predicted_response = out.predicted_response;
    job_log_.push_back(record);

    MetricsRegistry *metrics = options_.metrics;
    if (out.decision == load::AdmissionDecision::Shed) {
        // Shed before dispatch: the pair's two tasks never run and
        // the drain condition accounts for them explicitly.
        ++jobs_shed_;
        shed_tasks_ += 2;
        if (metrics != nullptr)
            metrics->add("runtime.jobs_shed", 1);
        // The span is terminal at the verdict: no attempts, zero
        // response, the shed reason preserved for attribution.
        const double stamp = backend_->now();
        openSpan(job.pair, job.priority, stamp);
        auto &span = open_span_[static_cast<std::size_t>(job.pair)];
        span.decision = out.decision;
        span.shed_reason = out.shed_reason;
        closeSpan(job.pair, stamp, obs::SpanOutcome::Shed);
    } else {
        ++jobs_admitted_;
        if (metrics != nullptr)
            metrics->add("runtime.jobs_admitted", 1);
        if (out.decision == load::AdmissionDecision::Delay) {
            ++jobs_delayed_;
            if (metrics != nullptr)
                metrics->add("runtime.jobs_delayed", 1);
        }
        const auto pair = static_cast<std::size_t>(job.pair);
        // Deadlines are judged on the engine clock: exact plan time
        // on the sim backend, the arrival timer's wall-clock firing
        // on the host (see docs/robustness.md).
        job_arrival_stamp_[pair] = backend_->now();
        job_slo_[pair] = job.slo_seconds;
        // Span first, enqueue second: a worker can pop the task the
        // instant it is in the ring and append attempts to the
        // (pair-serialized) open span.
        openSpan(job.pair, job.priority, job_arrival_stamp_[pair]);
        open_span_[pair].decision = out.decision;
        enqueueMemoryReady(graph_.memoryTaskOf(job.pair));
    }

    if (out.state != backpressure_) {
        backpressure_ = out.state;
        if (metrics != nullptr)
            metrics->set("runtime.backpressure_state",
                         static_cast<double>(out.state));
        policy_.onBackpressure(backend_->now(), out.state,
                               out.backlog);
        // An SLO-aware policy may move its MTL here; admit against
        // the new bound from the next dispatch on.
        refreshMtlCacheLocked();
    }

    healthJobVerdictLocked(job, record);
}

void
Engine::tryScheduleLocked()
{
    if (pull_mode_ || finished_)
        return; // worker threads pull their own attempts
    // Whether a fresh dispatch can still succeed. A failed dispatch
    // does not depend on the context, so after the first one only
    // due retries are left to start.
    bool fresh = !run_failed_.load(std::memory_order_relaxed);
    const int n = static_cast<int>(running_.size());
    for (int c = 0; c < n; ++c) {
        const auto w = static_cast<std::size_t>(c);
        if (retry_ready_[w].exchange(false, std::memory_order_acq_rel)) {
            if (run_failed_.load(std::memory_order_relaxed)) {
                abandonAttemptLocked(c);
                maybeFinishLocked();
            } else {
                backend_->startAttempt(c, retry_spec_[w]);
            }
            continue;
        }
        if (!fresh || running_[w].load(std::memory_order_relaxed) !=
                          stream::kInvalidTask)
            continue;
        AttemptSpec spec;
        if (tryDispatchReady(c, spec))
            backend_->startAttempt(c, spec);
        else
            fresh = false;
    }
}

void
Engine::onAttemptDone(int context, const AttemptOutcome &outcome)
{
    const TaskId id = running_[static_cast<std::size_t>(context)].load(
        std::memory_order_relaxed);
    // Fast path: a successful memory attempt in a healthy run
    // completes without the scheduler mutex. Everything it touches is
    // worker-owned, pair-serialized or atomic.
    if (!outcome.failed && graph_.task(id).kind == TaskKind::Memory &&
        !run_failed_.load(std::memory_order_acquire)) {
        completeMemoryFast(context, id, outcome);
        if (!pull_mode_) {
            std::lock_guard lock(mutex_);
            tryScheduleLocked();
        }
        return;
    }
    std::lock_guard lock(mutex_);
    if (outcome.failed) {
        handleFailureLocked(context, id, outcome);
        return;
    }
    completeSlowLocked(context, id, outcome);
    tryScheduleLocked();
    maybeFinishLocked();
}

void
Engine::onRetryTimer(int worker)
{
    std::lock_guard lock(mutex_);
    auto &pending = pending_retry_[static_cast<std::size_t>(worker)];
    if (!pending.active.load(std::memory_order_relaxed) || finished_)
        return; // cancelled (failed run abandoned the reservation)
    pending.active.store(false, std::memory_order_relaxed);
    pending.token = 0;
    // Hand the stashed retry to its owning worker. The worker checks
    // run_failed_ itself and abandons instead of re-running if the
    // run aborted between grant and fire.
    retry_ready_[static_cast<std::size_t>(worker)].store(
        true, std::memory_order_seq_cst);
    wakeWorkers();
    tryScheduleLocked();
}

void
Engine::recordAttemptEvent(int worker, TaskId id,
                           const AttemptOutcome &outcome)
{
    const Task &task = graph_.task(id);
    task_start_[static_cast<std::size_t>(id)] = outcome.start;
    task_end_[static_cast<std::size_t>(id)] = outcome.end;
    tasks_done_.fetch_add(1, std::memory_order_seq_cst);

    obs::TaskEvent event;
    event.task = id;
    event.pair = task.pair;
    event.phase = task.phase;
    event.is_memory = task.kind == TaskKind::Memory;
    event.worker = worker;
    event.start = outcome.start;
    event.end = outcome.end;
    event.mtl = task_mtl_[static_cast<std::size_t>(id)];
    event.attempt = attempts_[static_cast<std::size_t>(id)];
    if (outcome.has_counters) {
        // The delta covers this (successful) attempt's body only --
        // failed attempts never reach here, so retries are never
        // merged into one event.
        event.has_counters = true;
        event.counters = outcome.counters;
        // Worker-local aggregation, folded after the workers joined
        // (finishResult) -- no synchronisation needed.
        auto &wc = worker_counters_[static_cast<std::size_t>(worker)];
        wc.saw = true;
        wc.totals += outcome.counters;
    }
    {
        const std::uint64_t t0 = wallNanos();
        tracer_->ring(worker).record(event);
        obs_trace_record_ns_.fetch_add(wallNanos() - t0,
                                       std::memory_order_relaxed);
    }
    spanAttempt(id, worker, outcome, false, 0.0);
}

void
Engine::completePairLocked(int worker, TaskId id, double start,
                           double end)
{
    const Task &task = graph_.task(id);
    // Pair complete: time it, maybe corrupt it, report it.
    const stream::PairId pair = task.pair;
    const TaskId mem_id = graph_.memoryTaskOf(pair);
    core::PairSample sample;
    sample.tm = task_end_[static_cast<std::size_t>(mem_id)] -
                task_start_[static_cast<std::size_t>(mem_id)];
    sample.tc = end - start;
    sample.end_time = end;
    sample.mtl = pair_mem_mtl_[static_cast<std::size_t>(pair)];
    if (options_.fault_plan && options_.fault_plan->enabled()) {
        // Corruption models a broken clock read at measurement
        // time. Keyed by the compute task with attempt 0 so the
        // same pairs corrupt regardless of retry history -- and
        // identically on every backend.
        const fault::TaskFaults faults =
            options_.fault_plan->forTask(id, 0);
        if (faults.corrupt_sample) {
            sample.tm = options_.fault_plan->corruptValue(id, 0);
            sample.tc = options_.fault_plan->corruptValue(id, 1);
        }
    }
    backend_->pairCompleted(graph_.task(mem_id));
    samples_.push_back(sample);
    if (metric_shards_.has_value() && std::isfinite(sample.tm) &&
        std::isfinite(sample.tc)) {
        const std::string suffix =
            ".mtl=" + std::to_string(sample.mtl);
        const auto w = static_cast<std::size_t>(worker);
        metric_shards_->observe(w, "runtime.tm_seconds" + suffix,
                                sample.tm);
        metric_shards_->observe(w, "runtime.tc_seconds" + suffix,
                                sample.tc);
    }
    policy_.onPairMeasured(sample);
    refreshMtlCacheLocked();

    if (health_.has_value() && std::isfinite(sample.tm)) {
        // Model-bound window sums: the Sec. IV-C queuing fit
        // predicts T_mb = T_ml + b * T_ql with b memory tasks
        // sharing the path; the MTL the pair ran under is the upper
        // bound on b, so sum_bound is the most generous prediction
        // the fit allows. Corrupted samples inflate sum_tm and trip
        // the detector -- that is the point.
        const obs::HealthConfig &hc = health_->config();
        ++health_window_samples_;
        health_window_sum_tm_ += std::max(sample.tm, 0.0);
        health_window_sum_bound_ +=
            hc.model_tml +
            static_cast<double>(std::max(sample.mtl, 1)) *
                hc.model_tql;
    }

    bool deadline_missed = false;
    if (open_loop_) {
        // Deadline accounting against the *actual* completion:
        // the admission model predicted, this is ground truth.
        const double arrival =
            job_arrival_stamp_[static_cast<std::size_t>(pair)];
        const double response = end - arrival;
        const double queue_wait =
            task_start_[static_cast<std::size_t>(mem_id)] - arrival;
        response_log_.push_back(response);
        if (metric_shards_.has_value()) {
            const Histogram::Options opts{
                .min_value = 1e-6, .growth = 2.0, .buckets = 32};
            const auto w = static_cast<std::size_t>(worker);
            metric_shards_->observe(w, "runtime.response_seconds",
                                    std::max(response, 0.0), opts);
            metric_shards_->observe(w, "runtime.queue_wait_seconds",
                                    std::max(queue_wait, 0.0), opts);
        }
        const double slo = job_slo_[static_cast<std::size_t>(pair)];
        if (slo > 0.0 && response > slo) {
            deadline_missed = true;
            ++jobs_deadline_missed_;
            if (MetricsRegistry *metrics = options_.metrics)
                metrics->add("runtime.jobs_deadline_missed", 1);
        }
    }
    closeSpan(pair, end,
              deadline_missed ? obs::SpanOutcome::DeadlineMiss
                              : obs::SpanOutcome::Completed);
}

void
Engine::readyDepthObserve(int worker)
{
    if (!metric_shards_.has_value())
        return;
    const Histogram::Options opts{
        .min_value = 1.0, .growth = 2.0, .buckets = 24};
    const auto w = static_cast<std::size_t>(worker);
    metric_shards_->observe(
        w, "runtime.ready_memory_depth",
        static_cast<double>(ready_memory_ring_->sizeApprox()), opts);
    metric_shards_->observe(
        w, "runtime.ready_compute_depth",
        static_cast<double>(ready_compute_ring_->sizeApprox()), opts);
}

void
Engine::unlockSuccessors(TaskId id, double now)
{
    // The final decrement (acq_rel) publishes this task's completion
    // state -- task_start_/task_end_ above all -- to whichever worker
    // later pops the successor off a ring.
    for (TaskId succ : succs_[static_cast<std::size_t>(id)]) {
        if (deps_left_[static_cast<std::size_t>(succ)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            if (graph_.task(succ).kind == TaskKind::Memory) {
                // A dependency-unlocked memory task starts its
                // pair's span: runnable from this completion on.
                openSpan(graph_.task(succ).pair, 0, now);
                enqueueMemoryReady(succ);
            } else {
                enqueueComputeReady(succ);
            }
        }
    }
}

void
Engine::completeMemoryFast(int worker, TaskId id,
                           const AttemptOutcome &outcome)
{
    // Lock-free memory-task completion (healthy run).
    // Safe without the scheduler mutex because every touched datum is
    // either worker-owned (running_, trace ring, counter shard),
    // pair-serialized (the open span -- the pair's compute task
    // cannot run until the fetch_sub below), or atomic.
    recordAttemptEvent(worker, id, outcome);
    gate_->release(static_cast<std::size_t>(worker));
    running_[static_cast<std::size_t>(worker)].store(
        stream::kInvalidTask, std::memory_order_relaxed);
    readyDepthObserve(worker);
    unlockSuccessors(id, outcome.end);
    // A memory task is never the last of its phase (its compute
    // successor completes later), so the barrier cannot trip here.
    phase_remaining_.fetch_sub(1, std::memory_order_seq_cst);
    inflight_attempts_.fetch_sub(1, std::memory_order_seq_cst);
    // The freed admission slot may unblock a parked worker.
    wakeWorkers();
    if (run_failed_.load(std::memory_order_seq_cst)) {
        // The run aborted while we completed lock-free; the failing
        // path may have seen our attempt still in flight, so re-run
        // the finish check it skipped.
        std::lock_guard lock(mutex_);
        maybeFinishLocked();
    }
}

void
Engine::completeSlowLocked(int worker, TaskId id,
                           const AttemptOutcome &outcome)
{
    // Successful attempt that needs the slow path: a compute (pair)
    // completion, or any completion draining into a failed run.
    const Task &task = graph_.task(id);
    const double end = outcome.end;
    running_[static_cast<std::size_t>(worker)].store(
        stream::kInvalidTask, std::memory_order_relaxed);
    recordAttemptEvent(worker, id, outcome);

    if (task.kind == TaskKind::Memory)
        gate_->release(static_cast<std::size_t>(worker));
    else
        completePairLocked(worker, id, outcome.start, end);

    readyDepthObserve(worker);
    unlockSuccessors(id, end);

    if (phase_remaining_.fetch_sub(1, std::memory_order_seq_cst) ==
            1 &&
        current_phase_ + 1 < graph_.phaseCount()) {
        tt_assert(ready_memory_ring_->emptyApprox() &&
                      ready_compute_ring_->emptyApprox(),
                  "ready tasks left at a phase barrier");
        activatePhaseLocked(current_phase_ + 1, end);
    }
    inflight_attempts_.fetch_sub(1, std::memory_order_seq_cst);
}

void
Engine::handleFailureLocked(int worker, TaskId id,
                            const AttemptOutcome &outcome)
{
    const auto w = static_cast<std::size_t>(worker);
    const int attempt = attempts_[static_cast<std::size_t>(id)];
    if (!run_failed_.load(std::memory_order_relaxed) &&
        attempt < options_.max_task_retries) {
        const double backoff =
            std::min(options_.retry_backoff_seconds *
                         std::ldexp(1.0, attempt),
                     50e-3);
        spanAttempt(id, worker, outcome, true, backoff);
        ++attempts_[static_cast<std::size_t>(id)];
        task_retries_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry *metrics = options_.metrics)
            metrics->add("runtime.task_retries", 1);
        retry_log_.push_back(RetryRecord{id, attempt});
        // The worker stays reserved through the backoff (its gate
        // slot included, for memory tasks), so the retry cannot be
        // starved out by fresh dispatches.
        AttemptSpec spec;
        spec.task = id;
        spec.attempt = attempts_[static_cast<std::size_t>(id)];
        spec.rerun_memory_first =
            graph_.task(id).kind == TaskKind::Compute;
        const fault::FaultPlan *plan = options_.fault_plan;
        if (plan != nullptr && plan->enabled()) {
            spec.faults = plan->forTask(id, spec.attempt);
            spec.stall_seconds = plan->config().stall_seconds;
        }
        retry_spec_[w] = spec;
        auto &pending = pending_retry_[w];
        pending.active.store(true, std::memory_order_relaxed);
        pending.token = backend_->after(
            backoff, [this, worker] { onRetryTimer(worker); });
        return;
    }

    spanAttempt(id, worker, outcome, true, 0.0);
    ++task_failures_;
    if (MetricsRegistry *metrics = options_.metrics)
        metrics->add("runtime.task_failures", 1);
    running_[w].store(stream::kInvalidTask,
                      std::memory_order_relaxed);
    if (graph_.task(id).kind == TaskKind::Memory)
        gate_->release(w);
    inflight_attempts_.fetch_sub(1, std::memory_order_seq_cst);
    markRunFailedLocked("task " + std::to_string(id) +
                        " failed after " +
                        std::to_string(options_.max_task_retries) +
                        " retries: " + outcome.error);
    closeSpan(graph_.task(id).pair, outcome.end,
              obs::SpanOutcome::Failed);
    maybeFinishLocked();
}

void
Engine::markRunFailedLocked(const std::string &reason)
{
    if (run_failed_.load(std::memory_order_relaxed))
        return;
    failure_reason_ = reason;
    run_failed_.store(true, std::memory_order_seq_cst);
    tt_warn("aborting run: ", failure_reason_);
    abandonPendingRetriesLocked();
    wakeWorkers(); // parked workers re-evaluate into drain mode
}

void
Engine::abandonAttemptLocked(int worker)
{
    const auto w = static_cast<std::size_t>(worker);
    const TaskId id = running_[w].load(std::memory_order_relaxed);
    if (id == stream::kInvalidTask)
        return;
    running_[w].store(stream::kInvalidTask,
                      std::memory_order_relaxed);
    if (graph_.task(id).kind == TaskKind::Memory)
        gate_->release(w);
    inflight_attempts_.fetch_sub(1, std::memory_order_seq_cst);
}

void
Engine::abandonPendingRetriesLocked()
{
    const int n = static_cast<int>(pending_retry_.size());
    for (int c = 0; c < n; ++c) {
        auto &pending = pending_retry_[static_cast<std::size_t>(c)];
        if (!pending.active.load(std::memory_order_relaxed))
            continue;
        pending.active.store(false, std::memory_order_relaxed);
        backend_->cancel(pending.token);
        pending.token = 0;
        abandonAttemptLocked(c);
    }
}

void
Engine::maybeFinishLocked()
{
    if (finished_)
        return;
    const int done = tasks_done_.load(std::memory_order_seq_cst);
    // Open-loop: drained once every plan job was delivered and every
    // task either completed or belongs to a shed pair.
    const bool drained =
        open_loop_ ? next_job_ >= options_.arrival_plan->size() &&
                         done + shed_tasks_ == graph_.taskCount()
                   : done == graph_.taskCount();
    if (!drained) {
        if (!run_failed_.load(std::memory_order_relaxed))
            return;
        // inflight_attempts_ covers running bodies *and* retry
        // reservations, so zero means truly idle.
        if (inflight_attempts_.load(std::memory_order_seq_cst) != 0)
            return;
    }
    finished_ = true;
    drain_seconds_ = backend_->now();
    run_complete_.store(true, std::memory_order_seq_cst);
    wakeWorkers(); // parked workers observe run_complete_, exit
    if (watchdog_token_ != 0) {
        backend_->cancel(watchdog_token_);
        watchdog_token_ = 0;
    }
    if (const auto token = timeseries_token_.exchange(
            0, std::memory_order_acq_rel);
        token != 0) {
        backend_->cancel(token);
    }
    if (arrival_token_ != 0) {
        backend_->cancel(arrival_token_);
        arrival_token_ = 0;
    }
    if (const auto token =
            live_token_.exchange(0, std::memory_order_acq_rel);
        token != 0) {
        backend_->cancel(token);
    }
    if (const auto token =
            health_token_.exchange(0, std::memory_order_acq_rel);
        token != 0) {
        backend_->cancel(token);
    }
    // Final shard fold so the drain-time row/snapshot (and any late
    // scrape) see fully caught-up registry values.
    if (metric_shards_.has_value())
        metric_shards_->fold();
    // Flush partial health windows before the drain-time row and
    // snapshot so both carry the final alert state.
    healthFinishLocked();
    if (options_.timeseries_out != nullptr) {
        // Final row so even a sub-interval run leaves a snapshot
        // behind; stamped at drain time so it cannot extend the
        // reported makespan.
        emitTimeseriesRowLocked();
        options_.timeseries_out->flush();
    }
    if (options_.live_sink != nullptr) {
        // Drain-time snapshot so even a sub-interval run leaves a
        // readable OpenMetrics file behind.
        liveSnapshotLocked();
    }
    backend_->runDrained();
}

void
Engine::onWatchdogDeadline()
{
    if (run_complete_.load(std::memory_order_relaxed))
        return; // drained while the deadline callback was in flight
    if (MetricsRegistry *metrics = options_.metrics)
        metrics->add("runtime.watchdog_fired", 1);

    if (backend_->watchdogTerminatesProcess()) {
        std::fprintf(
            stderr,
            "tt: watchdog: run exceeded %.3f s deadline; dumping "
            "diagnostics and exiting with code %d\n",
            options_.watchdog_seconds, options_.watchdog_exit_code);
        runCrashDumpHooks(); // includes this engine's crashDump()
        std::fflush(nullptr);
        // Workers may be wedged holding locks; a normal exit would
        // hang in their joins/destructors, so leave without unwinding.
        backend_->terminateProcess(options_.watchdog_exit_code);
        return;
    }

    // Backends without real threads (sim, mocks) cannot wedge: fail
    // the run in-band through the same diagnostics path and let any
    // in-flight attempts drain.
    std::fprintf(stderr,
                 "tt: watchdog: run exceeded %.3f s deadline; failing "
                 "the run\n",
                 options_.watchdog_seconds);
    std::lock_guard lock(mutex_);
    if (finished_)
        return;
    watchdog_fired_ = true;
    watchdog_token_ = 0;
    char reason[96];
    std::snprintf(reason, sizeof reason,
                  "watchdog: run exceeded %.3f s deadline",
                  options_.watchdog_seconds);
    markRunFailedLocked(reason);
    maybeFinishLocked();
}

void
Engine::onTimeseriesTick()
{
    if (run_complete_.load(std::memory_order_acquire))
        return; // drained while this callback was in flight
    {
        // Never stall the schedulers' slow path for a sample: a busy
        // mutex skips the row (counted, and warned about by ttsim)
        // instead of convoying workers behind the sampler.
        std::unique_lock lock(mutex_, std::try_to_lock);
        if (lock.owns_lock()) {
            if (finished_)
                return;
            if (metric_shards_.has_value())
                metric_shards_->fold(); // window-boundary fold
            emitTimeseriesRowLocked();
        } else {
            timeseries_skipped_.fetch_add(1,
                                          std::memory_order_relaxed);
        }
    }
    // Re-armed outside the mutex; the race against the cancel at
    // finish is benign (a stray tick bails on run_complete_).
    timeseries_token_.store(
        backend_->after(
            std::max(options_.timeseries_interval_seconds, 1e-6),
            [this] { onTimeseriesTick(); }),
        std::memory_order_release);
}

void
Engine::onLiveTick()
{
    if (run_complete_.load(std::memory_order_acquire))
        return;
    {
        std::lock_guard lock(mutex_);
        if (finished_)
            return;
        if (metric_shards_.has_value())
            metric_shards_->fold(); // snapshot sees current values
        liveSnapshotLocked();
    }
    live_token_.store(
        backend_->after(std::max(options_.live_interval_seconds, 1e-6),
                        [this] { onLiveTick(); }),
        std::memory_order_release);
}

void
Engine::liveSnapshotLocked()
{
    // The sink measures its own rendering cost and charges it to
    // obs.overhead.live_export_ns.
    options_.live_sink->snapshot(finished_ ? drain_seconds_
                                           : backend_->now());
}

void
Engine::emitTimeseriesRowLocked()
{
    const std::uint64_t t0 = wallNanos();
    obs::TimeseriesSample row;
    row.time = finished_ ? drain_seconds_ : backend_->now();
    row.mtl = policy_.currentMtl();
    row.mem_in_flight = static_cast<int>(gate_->current());
    row.tasks_done = tasks_done_.load(std::memory_order_relaxed);
    row.pairs_done = static_cast<long>(samples_.size());
    row.ready_memory = ready_memory_ring_->sizeApprox();
    row.ready_compute = ready_compute_ring_->sizeApprox();
    row.selections = policy_.stats().selections;
    row.degraded = policy_.degraded();
    if (open_loop_) {
        // Jobs in system (admitted, not yet completed): the N of
        // Little's law, which is what "queue depth" means here.
        row.queue_depth = static_cast<long>(
            jobs_admitted_ - static_cast<long>(samples_.size()));
        row.backpressure = static_cast<int>(backpressure_);
    }
    obs::writeTimeseriesRow(row, *options_.timeseries_out);
    obs_sampler_ns_ += wallNanos() - t0;
}

void
Engine::healthJobVerdictLocked(const load::JobSpec &job,
                               const JobRecord &record)
{
    if (!health_.has_value())
        return;
    const std::uint64_t t0 = wallNanos();
    ++health_window_offered_;
    if (record.decision == load::AdmissionDecision::Shed) {
        ++health_window_shed_;
    } else if (job.slo_seconds > 0.0 &&
               record.predicted_response > job.slo_seconds) {
        // Admitted but the admission model already expects it late:
        // a deterministic stand-in for the (wall-clock-dependent)
        // actual deadline outcome, so burn windows agree across
        // backends.
        ++health_window_predicted_late_;
    }
    health_window_backlog_ = record.backlog;
    if (health_window_offered_ >= health_->config().window_jobs)
        healthCloseJobWindowLocked();
    obs_health_ns_ += wallNanos() - t0;
}

void
Engine::healthCloseJobWindowLocked()
{
    obs::JobWindowSample sample;
    sample.window = health_job_window_++;
    sample.time = finished_ ? drain_seconds_ : backend_->now();
    sample.offered = health_window_offered_;
    sample.shed = health_window_shed_;
    sample.predicted_late = health_window_predicted_late_;
    sample.backlog = health_window_backlog_;
    health_window_offered_ = 0;
    health_window_shed_ = 0;
    health_window_predicted_late_ = 0;
    health_->onJobWindow(sample);
    publishHealthMetricsLocked();
}

void
Engine::onHealthTick()
{
    if (run_complete_.load(std::memory_order_acquire))
        return; // drained while this callback was in flight
    {
        std::lock_guard lock(mutex_);
        if (finished_)
            return;
        healthTickWindowLocked();
    }
    // Re-armed outside the mutex, same benign race as the sampler.
    health_token_.store(
        backend_->after(
            std::max(health_->config().tick_seconds, 1e-6),
            [this] { onHealthTick(); }),
        std::memory_order_release);
}

void
Engine::healthTickWindowLocked()
{
    const std::uint64_t t0 = wallNanos();
    obs::TickWindowSample sample;
    sample.window = health_tick_window_++;
    sample.time = finished_ ? drain_seconds_ : backend_->now();

    // Hot-path counter deltas since the previous tick window.
    const long gate_failures = gate_->admitFailures();
    const long gate_folds = gate_->folds();
    sample.gate_failures = gate_failures - health_prev_gate_failures_;
    sample.gate_folds = gate_folds - health_prev_gate_folds_;
    health_prev_gate_failures_ = gate_failures;
    health_prev_gate_folds_ = gate_folds;

    const std::uint64_t trace_dropped = tracer_->dropped();
    const std::uint64_t span_dropped = span_buffer_->dropped();
    const std::uint64_t records =
        tracer_->recorded() + span_buffer_->recorded();
    sample.trace_dropped = static_cast<long>(
        trace_dropped - health_prev_trace_dropped_);
    sample.span_dropped =
        static_cast<long>(span_dropped - health_prev_span_dropped_);
    sample.records =
        static_cast<long>(records - health_prev_records_);
    health_prev_trace_dropped_ = trace_dropped;
    health_prev_span_dropped_ = span_dropped;
    health_prev_records_ = records;

    const std::uint64_t ebr_advances = span_buffer_->epochAdvances();
    sample.ebr_pending = span_buffer_->epochPending();
    sample.ebr_advances = ebr_advances - health_prev_ebr_advances_;
    health_prev_ebr_advances_ = ebr_advances;

    sample.pair_samples = health_window_samples_;
    sample.sum_tm = health_window_sum_tm_;
    sample.sum_bound = health_window_sum_bound_;
    health_window_samples_ = 0;
    health_window_sum_tm_ = 0.0;
    health_window_sum_bound_ = 0.0;

    health_->onTickWindow(sample);
    publishHealthMetricsLocked();
    obs_health_ns_ += wallNanos() - t0;
}

void
Engine::healthFinishLocked()
{
    if (!health_.has_value())
        return;
    // Flush the partial job window (both backends see the same
    // residue: the plan length is the plan length) and one last tick
    // window, so alerts active at drain are visible in the final
    // snapshot and the edge stream is complete.
    if (health_window_offered_ > 0)
        healthCloseJobWindowLocked();
    healthTickWindowLocked();
}

void
Engine::publishHealthMetricsLocked()
{
    MetricsRegistry *metrics = options_.metrics;
    if (metrics == nullptr || !health_.has_value())
        return;
    const auto states = health_->ruleStates();
    for (std::size_t i = 0; i < states.size(); ++i) {
        const auto &state = states[i];
        const std::string rule(state.rule);
        // Gauge value doubles as the severity encoding (0 inactive,
        // 1 warning, 2 critical) so ttstat can gate on "critical
        // active" without parsing rule metadata.
        metrics->set("obs.alerts_active." + rule,
                     state.active
                         ? static_cast<double>(state.severity)
                         : 0.0);
        metrics->add("obs.alerts_fired." + rule,
                     static_cast<std::int64_t>(
                         state.fired - health_pub_fired_[i]));
        metrics->add("obs.alerts_cleared." + rule,
                     static_cast<std::int64_t>(
                         state.cleared - health_pub_cleared_[i]));
        health_pub_fired_[i] = state.fired;
        health_pub_cleared_[i] = state.cleared;
    }
    metrics->add("obs.alerts_dropped",
                 static_cast<std::int64_t>(health_->alertsDropped() -
                                           health_pub_dropped_));
    health_pub_dropped_ = health_->alertsDropped();
}

void
Engine::refreshMtlCacheLocked()
{
    // Policies are not thread-safe, so currentMtl() is only read
    // under mutex_ and mirrored here for the lock-free admission
    // bound. The mirror is exact: the policy only changes state
    // under this same mutex.
    const int mtl = policy_.currentMtl();
    const int prev = mtl_cache_.exchange(mtl, std::memory_order_seq_cst);
    if (mtl > prev)
        wakeWorkers(); // new headroom may unblock admission waiters
}

void
Engine::wakeWorkers()
{
    // parked_ is a fast-path hint: while every worker is busy this
    // is one relaxed-ish load and no lock at all.
    if (parked_.load(std::memory_order_seq_cst) == 0)
        return;
    {
        // Bump the generation under the lot mutex so a worker that
        // registered but has not yet slept cannot miss the wake.
        std::lock_guard lock(park_mutex_);
        ++park_gen_;
        ++wake_notifies_; // telemetry; already on the slow path
    }
    park_cv_.notify_all();
}

bool
Engine::workerShouldSleep(int worker) const
{
    const auto w = static_cast<std::size_t>(worker);
    if (run_complete_.load(std::memory_order_acquire))
        return false; // exit instead
    if (retry_ready_[w].load(std::memory_order_acquire))
        return false; // our retry is due
    if (running_[w].load(std::memory_order_acquire) !=
        stream::kInvalidTask)
        return true; // reserved: only our retry timer can free us
    if (run_failed_.load(std::memory_order_acquire))
        return true; // drain mode: nothing to dispatch, wait for end
    if (!ready_compute_ring_->emptyApprox())
        return false;
    if (!ready_memory_ring_->emptyApprox() &&
        gate_->current() < mtl_cache_.load(std::memory_order_seq_cst))
        return false;
    return true;
}

void
Engine::parkWorker(int worker)
{
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (!workerShouldSleep(worker)) {
        // Work appeared between our last probe and registering.
        parked_.fetch_sub(1, std::memory_order_seq_cst);
        return;
    }
    // Count the park on this worker's own metric shard: the worker
    // is about to sleep anyway, so the map lookup is free contention-
    // wise and the hot dispatch path stays untouched.
    if (metric_shards_.has_value())
        metric_shards_->add(static_cast<std::size_t>(worker),
                            "runtime.worker_parks", 1);
    {
        std::unique_lock lock(park_mutex_);
        const std::uint64_t gen = park_gen_;
        // The bounded wait is insurance, not the wake mechanism: the
        // parked_ hint can race a producer that published work before
        // seeing our registration; 2 ms bounds that tail.
        park_cv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
            return park_gen_ != gen || !workerShouldSleep(worker);
        });
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
}

void
Engine::prepareDispatch(int worker, TaskId id, int mtl,
                        AttemptSpec &spec)
{
    const Task &task = graph_.task(id);
    const auto w = static_cast<std::size_t>(worker);
    running_[w].store(id, std::memory_order_relaxed);
    inflight_attempts_.fetch_add(1, std::memory_order_seq_cst);
    // Fresh dispatches are always attempt 0: failed tasks never
    // requeue (the retry stays reserved on its worker), so these
    // slots are quiescent for everyone else.
    task_mtl_[static_cast<std::size_t>(id)] = mtl;
    if (task.kind == TaskKind::Memory)
        pair_mem_mtl_[static_cast<std::size_t>(task.pair)] = mtl;
    spec = AttemptSpec{};
    spec.task = id;
    spec.attempt = 0;
    const fault::FaultPlan *plan = options_.fault_plan;
    if (plan != nullptr && plan->enabled()) {
        spec.faults = plan->forTask(id, 0);
        spec.stall_seconds = plan->config().stall_seconds;
    }
}

bool
Engine::tryDispatchReady(int worker, AttemptSpec &spec)
{
    const int bound = mtl_cache_.load(std::memory_order_seq_cst);
    TaskId id = stream::kInvalidTask;
    // Compute first: compute tasks are never throttled.
    if (ready_compute_ring_->tryPop(id)) {
        prepareDispatch(worker, id, bound, spec);
        return true;
    }
    // Test the gate before taking it: a full gate is the throttle
    // doing its job, not an admission failure worth counting.
    if (ready_memory_ring_->emptyApprox() || gate_->current() >= bound)
        return false;
    const auto w = static_cast<std::size_t>(worker);
    if (!gate_->tryAcquire(w, bound))
        return false;
    if (ready_memory_ring_->tryPop(id)) {
        prepareDispatch(worker, id, bound, spec);
        return true;
    }
    // Another worker drained the ring between the probe and the pop;
    // give the slot back.
    gate_->release(w);
    return false;
}

bool
Engine::nextAttempt(int worker, AttemptSpec &spec)
{
    const auto w = static_cast<std::size_t>(worker);
    for (;;) {
        if (run_complete_.load(std::memory_order_acquire))
            return false;
        if (retry_ready_[w].exchange(false,
                                     std::memory_order_acq_rel)) {
            // Our granted retry's backoff elapsed: re-run the same
            // task on this worker (the context stayed reserved, so
            // retries are never starved).
            if (run_failed_.load(std::memory_order_acquire)) {
                std::lock_guard lock(mutex_);
                abandonAttemptLocked(worker);
                maybeFinishLocked();
                continue;
            }
            spec = retry_spec_[w];
            return true;
        }
        if (running_[w].load(std::memory_order_acquire) !=
            stream::kInvalidTask) {
            // Reserved through a backoff: park, never steal other
            // work (that would overwrite the reserved slot and break
            // the reservation invariant). Test the slot, not
            // pending_retry_[w].active: the retry timer clears
            // `active` before it sets retry_ready_, so a worker can
            // see neither flag while it is still reserved.
            parkWorker(worker);
            continue;
        }
        if (!run_failed_.load(std::memory_order_acquire) &&
            tryDispatchReady(worker, spec))
            return true;
        parkWorker(worker);
    }
}

void
Engine::crashDump()
{
    // Runs on the watchdog/terminate path with workers possibly
    // wedged inside the scheduler lock: never block, report whatever
    // is reachable. The counter reads race with live workers, which
    // is acceptable for a diagnostic of a dying process.
    std::unique_lock lock(mutex_, std::try_to_lock);
    if (lock.owns_lock())
        std::fprintf(stderr,
                     "tt: runtime progress: %d/%d tasks done, "
                     "%d memory tasks in flight\n",
                     tasks_done_.load(std::memory_order_relaxed),
                     graph_.taskCount(),
                     static_cast<int>(gate_->current()));
    else
        std::fprintf(stderr,
                     "tt: runtime progress: scheduler lock held "
                     "(worker wedged mid-dispatch), %d tasks total\n",
                     graph_.taskCount());
    if (tracer_.has_value())
        std::fprintf(
            stderr,
            "tt: runtime trace: %llu events recorded, %llu dropped; "
            "%ld task retries\n",
            static_cast<unsigned long long>(tracer_->recorded()),
            static_cast<unsigned long long>(tracer_->dropped()),
            task_retries_.load(std::memory_order_relaxed));
}

RunResult
Engine::run(ExecutionBackend &backend)
{
    tt_assert(!started_, "Engine::run() is single-shot");
    started_ = true;

    if (graph_.empty()) {
        RunResult result;
        result.mtl_trace = policy_.mtlTrace();
        return result;
    }

    backend_ = &backend;
    const int contexts = backend.contexts();
    tt_assert(contexts >= 1, "need at least one execution context");
    running_ =
        std::vector<std::atomic<TaskId>>(static_cast<std::size_t>(contexts));
    for (auto &slot : running_)
        slot.store(stream::kInvalidTask, std::memory_order_relaxed);
    pending_retry_ =
        std::vector<PendingRetry>(static_cast<std::size_t>(contexts));
    pull_mode_ = backend.pullDispatch();
    // Each ring holds at most one task per pair: pushes cannot fail.
    const auto ring_cap = static_cast<std::size_t>(graph_.pairCount());
    ready_memory_ring_.emplace(ring_cap);
    ready_compute_ring_.emplace(ring_cap);
    gate_.emplace(static_cast<std::size_t>(contexts));
    retry_ready_ =
        std::vector<std::atomic<bool>>(static_cast<std::size_t>(contexts));
    retry_spec_.assign(static_cast<std::size_t>(contexts), AttemptSpec{});
    worker_counters_.assign(static_cast<std::size_t>(contexts),
                            WorkerCounters{});
    if (options_.metrics != nullptr)
        metric_shards_.emplace(*options_.metrics,
                               static_cast<std::size_t>(contexts));
    tracer_.emplace(contexts, ringCapacity(options_, graph_.taskCount()));
    const auto n_pairs = static_cast<std::size_t>(graph_.pairCount());
    span_buffer_.emplace(std::max<std::size_t>(
        1, std::min(options_.span_capacity, n_pairs)));
    open_span_.assign(n_pairs, obs::JobSpan{});
    span_open_ = std::vector<std::atomic<bool>>(n_pairs);
    for (auto &flag : span_open_)
        flag.store(false, std::memory_order_relaxed);

    backend.beginRun(*this);

    // Surface degraded counter providers up front: a crash dump or
    // watchdog report should already carry the gauge.
    if (options_.counters != nullptr && options_.metrics != nullptr)
        options_.metrics->set(
            "runtime.perf_unavailable",
            options_.counters->available() ? 0.0 : 1.0);

    // While the run is live, abnormal termination (tt_assert, the
    // watchdog) can flush this engine's diagnostics.
    const int hook_id = registerCrashDumpHook([this] { crashDump(); });

    {
        std::lock_guard lock(mutex_);
        refreshMtlCacheLocked(); // admission bound before workers run
        if (options_.health.enabled) {
            // Constructed before the first arrivals so t=0 verdicts
            // land in job window 0. The model-bound fit defaults to
            // the admission service estimates when none was given.
            obs::HealthConfig hc = options_.health;
            if (hc.model_tml <= 0.0 && open_loop_) {
                hc.model_tml = options_.admission.service_tml;
                hc.model_tql = options_.admission.service_tql;
            }
            health_.emplace(hc);
            health_pub_fired_.assign(health_->ruleStates().size(),
                                     0);
            health_pub_cleared_.assign(health_->ruleStates().size(),
                                       0);
            publishHealthMetricsLocked(); // materialize the schema
            health_token_ = backend.after(
                std::max(hc.tick_seconds, 1e-6),
                [this] { onHealthTick(); });
        }
        if (open_loop_) {
            admission_.emplace(options_.admission, contexts);
            backpressure_ = admission_->state();
            // Arrivals replace phase activation: tasks become ready
            // as their jobs are admitted, never all at once.
            current_phase_ = 0;
            phase_remaining_ = graph_.taskCount();
            processArrivalsLocked(0.0);
            scheduleNextArrivalLocked(0.0);
        } else {
            activatePhaseLocked(0, 0.0);
        }
        if (options_.timeseries_out != nullptr) {
            emitTimeseriesRowLocked();
            timeseries_token_ = backend.after(
                std::max(options_.timeseries_interval_seconds, 1e-6),
                [this] { onTimeseriesTick(); });
        }
        if (options_.live_sink != nullptr) {
            liveSnapshotLocked();
            live_token_ = backend.after(
                std::max(options_.live_interval_seconds, 1e-6),
                [this] { onLiveTick(); });
        }
        if (options_.watchdog_seconds > 0.0)
            watchdog_token_ =
                backend.after(options_.watchdog_seconds,
                              [this] { onWatchdogDeadline(); });
        tryScheduleLocked();
        if (open_loop_)
            maybeFinishLocked(); // plan may shed everything at t=0
    }

    backend.drive(*this);
    unregisterCrashDumpHook(hook_id);
    return finishResult();
}

RunResult
Engine::finishResult()
{
    std::lock_guard lock(mutex_);
    // The workers joined before drive() returned, so every shard --
    // metric, hw-counter -- is quiescent; fold the stragglers.
    if (metric_shards_.has_value())
        metric_shards_->fold();
    const int done = tasks_done_.load(std::memory_order_seq_cst);
    RunResult result;
    for (const WorkerCounters &wc : worker_counters_) {
        if (!wc.saw)
            continue;
        result.has_counters = true;
        result.counters += wc.totals;
    }
    result.failed = run_failed_.load(std::memory_order_relaxed);
    result.watchdog_fired = watchdog_fired_;
    result.failure_reason = failure_reason_;
    result.task_retries =
        task_retries_.load(std::memory_order_relaxed);
    result.task_failures = task_failures_;
    result.retries = retry_log_;
    tt_assert(result.failed ||
                  done + shed_tasks_ == graph_.taskCount(),
              "run drained with ", done, " of ",
              graph_.taskCount(), " tasks done and ", shed_tasks_,
              " shed (deadlock in graph or scheduler)");

    result.seconds =
        drain_seconds_ >= 0.0 ? drain_seconds_ : backend_->now();
    result.samples = samples_;
    result.policy_stats = policy_.stats();
    result.mtl_trace = policy_.mtlTrace();
    result.decisions = policy_.decisions();
    // The gate tracks the peak exactly (monotonic CAS-max over the
    // folded shard sum at every successful admit).
    result.peak_mem_in_flight = static_cast<int>(gate_->peak());
    result.trace = tracer_->merged();
    result.trace_dropped = tracer_->dropped();
    if (span_buffer_.has_value()) {
        result.spans = span_buffer_->spans();
        result.spans_dropped = span_buffer_->dropped();
    }
    result.timeseries_skipped =
        timeseries_skipped_.load(std::memory_order_relaxed);
    result.pin_failures = backend_->pinFailures();

    // Corrupted samples (injected or from a glitched clock) stay in
    // result.samples for inspection but are excluded from the
    // averages -- same screen the policies apply -- so one NaN or
    // absurd outlier cannot blank the whole summary.
    core::SampleGuard summary_guard;
    double tm_sum = 0.0;
    double tc_sum = 0.0;
    long clean = 0;
    for (const auto &sample : samples_) {
        if (!summary_guard.accept(sample))
            continue;
        tm_sum += sample.tm;
        tc_sum += sample.tc;
        ++clean;
    }
    if (clean > 0) {
        result.avg_tm = tm_sum / static_cast<double>(clean);
        result.avg_tc = tc_sum / static_cast<double>(clean);
    }
    if (!samples_.empty()) {
        // Probe overhead counts only samples a selection accepted;
        // stale pairs (measured under a pre-probe MTL) are tracked
        // separately in policy_stats.stale_pairs.
        result.monitor_overhead =
            static_cast<double>(result.policy_stats.probe_pairs) /
            static_cast<double>(samples_.size());
    }

    // Per-phase aggregates.
    for (const stream::Phase &phase : graph_.phases()) {
        PhaseResult pr;
        pr.name = phase.name;
        double tm = 0.0;
        double tc = 0.0;
        double start = std::numeric_limits<double>::infinity();
        double end = 0.0;
        for (int p = phase.first_pair;
             p < phase.first_pair + phase.pair_count; ++p) {
            const TaskId mem_id = graph_.memoryTaskOf(p);
            const TaskId cmp_id = graph_.computeTaskOf(p);
            tm += task_end_[static_cast<std::size_t>(mem_id)] -
                  task_start_[static_cast<std::size_t>(mem_id)];
            tc += task_end_[static_cast<std::size_t>(cmp_id)] -
                  task_start_[static_cast<std::size_t>(cmp_id)];
            start = std::min(
                start, task_start_[static_cast<std::size_t>(mem_id)]);
            end = std::max(end,
                           task_end_[static_cast<std::size_t>(cmp_id)]);
        }
        if (phase.pair_count > 0) {
            pr.tm_mean = tm / phase.pair_count;
            pr.tc_mean = tc / phase.pair_count;
            pr.start = start;
            pr.end = end;
        }
        result.phases.push_back(std::move(pr));
    }

    if (health_.has_value()) {
        result.health_enabled = true;
        result.alerts = health_->alerts();
        result.alerts_dropped = health_->alertsDropped();
        result.critical_alert_active = health_->criticalActive();
    }

    if (open_loop_) {
        result.jobs_offered =
            static_cast<long>(options_.arrival_plan->size());
        result.jobs_admitted = jobs_admitted_;
        result.jobs_delayed = jobs_delayed_;
        result.jobs_shed = jobs_shed_;
        result.jobs_deadline_missed = jobs_deadline_missed_;
        result.jobs = job_log_;
        result.response_seconds = response_log_;
        if (result.jobs_offered > 0) {
            // Shed jobs count as missed: attainment is over offered
            // load, not over what the system deigned to admit.
            result.slo_attainment =
                static_cast<double>(jobs_admitted_ -
                                    jobs_deadline_missed_) /
                static_cast<double>(result.jobs_offered);
        }
    }

    if (MetricsRegistry *metrics = options_.metrics) {
        metrics->add("runtime.tasks_done", done);
        metrics->add("runtime.pin_failed", result.pin_failures);
        metrics->add("trace.events_dropped",
                     static_cast<std::int64_t>(result.trace_dropped));
        metrics->add("obs.spans_dropped",
                     static_cast<std::int64_t>(result.spans_dropped));
        // Rows the sampler skipped because the scheduler mutex was
        // busy; the zero-delta add materializes the name on every
        // backend so schema diffs stay clean.
        metrics->add("obs.timeseries_skipped",
                     timeseries_skipped_.load(
                         std::memory_order_relaxed));
        // Self-observability: what tracing/sampling cost in *wall*
        // nanoseconds. The zero-delta adds materialize the full
        // obs.overhead.* schema on every backend; the backends then
        // add their counter-read share in finalize(), and the live
        // sinks charge live_export_ns as they serve.
        metrics->add("obs.overhead.trace_record_ns",
                     static_cast<std::int64_t>(
                         obs_trace_record_ns_.load(
                             std::memory_order_relaxed)));
        metrics->add("obs.overhead.sampler_ns",
                     static_cast<std::int64_t>(obs_sampler_ns_));
        metrics->add("obs.overhead.counter_read_ns", 0);
        metrics->add("obs.overhead.live_export_ns", 0);
        metrics->add("obs.overhead.health_ns",
                     static_cast<std::int64_t>(obs_health_ns_));
        // Hot-path substrate telemetry. Only worker threads park; the
        // sim's zero park/wake counts keep the schema identical.
        metrics->add("runtime.gate_admit_failures",
                     gate_->admitFailures());
        metrics->add("runtime.gate_folds", gate_->folds());
        metrics->set("runtime.ring_peak_memory",
                     static_cast<double>(
                         ready_memory_ring_->peakApprox()));
        metrics->set("runtime.ring_peak_compute",
                     static_cast<double>(
                         ready_compute_ring_->peakApprox()));
        metrics->add("runtime.worker_parks", 0); // shards added real
        metrics->add("runtime.worker_wakes",
                     static_cast<std::int64_t>(wake_notifies_));
        metrics->add("obs.ebr_epoch_advances",
                     static_cast<std::int64_t>(
                         span_buffer_->epochAdvances()));
        metrics->add("obs.ebr_advance_stalls",
                     static_cast<std::int64_t>(
                         span_buffer_->epochStalls()));
        metrics->set("obs.ebr_pending",
                     static_cast<double>(
                         span_buffer_->epochPending()));
        publishHealthMetricsLocked(); // final alert state (if any)
        metrics->setMax("runtime.peak_mem_in_flight",
                        result.peak_mem_in_flight);
        metrics->set("runtime.makespan_seconds", result.seconds);
        metrics->set("runtime.monitor_overhead",
                     result.monitor_overhead);
        if (open_loop_) {
            // Zero-delta adds materialize the full jobs_* schema even
            // for runs that never delayed or shed, so host and sim
            // open-loop runs expose identical metric names.
            metrics->add("runtime.jobs_admitted", 0);
            metrics->add("runtime.jobs_delayed", 0);
            metrics->add("runtime.jobs_shed", 0);
            metrics->add("runtime.jobs_deadline_missed", 0);
            metrics->set("runtime.slo_attainment",
                         result.slo_attainment);
            metrics->set("runtime.backpressure_state",
                         static_cast<double>(backpressure_));
        }
        if (options_.counters != nullptr) {
            // Published whenever a provider is configured -- zeros
            // under the null fallback -- so host and sim runs expose
            // the identical metric-name schema either way.
            metrics->add("runtime.perf.llc_misses",
                         static_cast<std::int64_t>(
                             result.counters.llc_misses));
            metrics->add(
                "runtime.perf.cycles",
                static_cast<std::int64_t>(result.counters.cycles));
            metrics->add("runtime.perf.stalled_cycles",
                         static_cast<std::int64_t>(
                             result.counters.stalled_cycles));
            metrics->add("runtime.perf.instructions",
                         static_cast<std::int64_t>(
                             result.counters.instructions));
        }
    }

    backend_->finalize(result);
    return result;
}

obs::TraceData
toTraceData(const stream::TaskGraph &graph, const RunResult &result)
{
    obs::TraceData data;
    data.events = result.trace;
    data.mtl_trace = result.mtl_trace;
    data.decisions = result.decisions;
    data.spans = result.spans;
    data.alerts = result.alerts;
    data.alerts_dropped = result.alerts_dropped;
    data.health_enabled = result.health_enabled;
    data.phase_names.reserve(
        static_cast<std::size_t>(graph.phaseCount()));
    for (const stream::Phase &phase : graph.phases())
        data.phase_names.push_back(phase.name);
    return data;
}

namespace {

std::string
violation(const char *what, stream::TaskId id)
{
    return std::string(what) + " (task " + std::to_string(id) + ")";
}

} // namespace

std::string
validateSchedule(const stream::TaskGraph &graph, const RunResult &result,
                 int contexts)
{
    const auto n_tasks = static_cast<std::size_t>(graph.taskCount());
    if (result.trace.size() != n_tasks)
        return "trace has " + std::to_string(result.trace.size()) +
               " entries for " + std::to_string(graph.taskCount()) +
               " tasks";

    std::vector<int> runs(n_tasks, 0);
    for (const obs::TaskEvent &entry : result.trace) {
        if (entry.task < 0 || entry.task >= graph.taskCount())
            return violation("trace entry with bad task id", entry.task);
        ++runs[static_cast<std::size_t>(entry.task)];
        if (entry.end < entry.start)
            return violation("task ends before it starts", entry.task);
        if (entry.worker < 0 || entry.worker >= contexts)
            return violation("task ran on a bad context", entry.task);
    }
    for (std::size_t id = 0; id < n_tasks; ++id)
        if (runs[id] != 1)
            return violation("task did not run exactly once",
                             static_cast<stream::TaskId>(id));

    // Index trace entries by task for dependency checks.
    std::vector<const obs::TaskEvent *> by_task(n_tasks, nullptr);
    for (const obs::TaskEvent &entry : result.trace)
        by_task[static_cast<std::size_t>(entry.task)] = &entry;

    // No overlap per execution context.
    std::vector<std::vector<const obs::TaskEvent *>> per_context(
        static_cast<std::size_t>(contexts));
    for (const obs::TaskEvent &entry : result.trace)
        per_context[static_cast<std::size_t>(entry.worker)].push_back(
            &entry);
    for (auto &entries : per_context) {
        std::sort(entries.begin(), entries.end(),
                  [](const obs::TaskEvent *a, const obs::TaskEvent *b) {
                      return a->start < b->start;
                  });
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (entries[i]->start < entries[i - 1]->end - 1e-12)
                return violation("two tasks overlap on one context",
                                 entries[i]->task);
        }
    }

    // MTL respected at every memory-task start instant.
    for (const obs::TaskEvent &entry : result.trace) {
        if (!entry.is_memory)
            continue;
        int concurrent = 0;
        for (const obs::TaskEvent &other : result.trace) {
            if (!other.is_memory)
                continue;
            if (other.start <= entry.start + 1e-15 &&
                entry.start < other.end - 1e-15) {
                ++concurrent;
            }
            // A zero-length memory task that dispatched exactly at
            // this instant still occupied a slot; count it when it
            // is the task under test itself.
        }
        if (concurrent == 0)
            concurrent = 1; // entry itself had zero length
        if (concurrent > entry.mtl)
            return violation("MTL exceeded at dispatch", entry.task);
    }

    // Dependencies.
    for (const stream::Task &task : graph.tasks()) {
        const obs::TaskEvent *entry =
            by_task[static_cast<std::size_t>(task.id)];
        for (stream::TaskId dep : task.deps) {
            const obs::TaskEvent *dep_entry =
                by_task[static_cast<std::size_t>(dep)];
            if (entry->start < dep_entry->end - 1e-12)
                return violation("task started before its dependency",
                                 task.id);
        }
    }
    // Phase barrier: min start of phase p+1 >= max end of phase p.
    std::vector<double> phase_min_start(
        static_cast<std::size_t>(graph.phaseCount()), 1e300);
    std::vector<double> phase_max_end(
        static_cast<std::size_t>(graph.phaseCount()), 0.0);
    for (const obs::TaskEvent &entry : result.trace) {
        auto &min_start =
            phase_min_start[static_cast<std::size_t>(entry.phase)];
        auto &max_end =
            phase_max_end[static_cast<std::size_t>(entry.phase)];
        min_start = std::min(min_start, entry.start);
        max_end = std::max(max_end, entry.end);
    }
    for (int p = 1; p < graph.phaseCount(); ++p) {
        if (phase_min_start[static_cast<std::size_t>(p)] <
            phase_max_end[static_cast<std::size_t>(p - 1)] - 1e-12) {
            return "phase " + std::to_string(p) +
                   " started before phase " + std::to_string(p - 1) +
                   " completed";
        }
    }

    return {};
}

} // namespace tt::exec
