#include "rtos/core.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "sim/assert.hpp"

namespace slm::rtos {

const char* to_string(TaskState s) {
    switch (s) {
        case TaskState::New: return "New";
        case TaskState::Ready: return "Ready";
        case TaskState::Running: return "Running";
        case TaskState::WaitingEvent: return "WaitingEvent";
        case TaskState::WaitingPeriod: return "WaitingPeriod";
        case TaskState::Sleeping: return "Sleeping";
        case TaskState::Suspended: return "Suspended";
        case TaskState::ParWait: return "ParWait";
        case TaskState::Terminated: return "Terminated";
    }
    return "?";
}

const char* to_string(TaskType t) {
    return t == TaskType::Periodic ? "Periodic" : "Aperiodic";
}

const char* to_string(MissPolicy p) {
    switch (p) {
        case MissPolicy::Ignore: return "Ignore";
        case MissPolicy::Notify: return "Notify";
        case MissPolicy::SkipJob: return "SkipJob";
        case MissPolicy::Restart: return "Restart";
        case MissPolicy::Kill: return "Kill";
    }
    return "?";
}

namespace {
/// Scoped in_teardown_ flag (see the member's comment in core.hpp).
struct TeardownScope {
    explicit TeardownScope(bool& flag) : flag_(flag), prev_(flag) { flag_ = true; }
    ~TeardownScope() { flag_ = prev_; }
    bool& flag_;
    bool prev_;
};
}  // namespace

Task::Task(OsCore& os, TaskParams params) : os_(os), params_(std::move(params)) {
    dispatch_evt_ = std::make_unique<sim::Event>(os.kernel(), params_.name + ".dispatch");
}

OsCore::OsCore(sim::Kernel& kernel, RtosConfig cfg)
    : kernel_(kernel), cfg_(std::move(cfg)) {
    SLM_ASSERT(cfg_.speed_num > 0 && cfg_.speed_den > 0,
               "RtosConfig speed scale must be positive");
    policy_ = make_policy(cfg_.policy, cfg_.quantum);
    ready_ = policy_->make_queue();
}

OsCore::~OsCore() {
    for (OsObserver* obs : observers_) {
        obs->on_core_teardown();
    }
}

void OsCore::init() {
    SLM_ASSERT(!started_, "init() after start()");
    SLM_ASSERT(tasks_.empty(), "init() must precede task_create()");
    stats_ = RtosStats{};
}

void OsCore::start() {
    SLM_ASSERT(!started_, "start() called twice");
    started_ = true;
    schedule();
}

void OsCore::start(SchedPolicy policy) {
    policy_ = make_policy(policy, cfg_.quantum);
    // Tasks activated before start() already sit in the old queue; migrate
    // them so the new policy orders them (arrival_seq stamps are preserved).
    auto queue = policy_->make_queue();
    while (!ready_->empty()) {
        queue->push(ready_->pop());
    }
    ready_ = std::move(queue);
    start();
}

Task* OsCore::task_create(TaskParams params) {
    ++stats_.syscalls;
    SLM_ASSERT(params.type != TaskType::Periodic || !params.period.is_zero(),
               "periodic task needs a non-zero period");
    tasks_.push_back(std::unique_ptr<Task>(new Task(*this, std::move(params))));
    return tasks_.back().get();
}

Task* OsCore::self() const {
    const auto it = by_process_.find(sim::this_process());
    return it != by_process_.end() ? it->second : nullptr;
}

std::vector<const Task*> OsCore::tasks() const {
    std::vector<const Task*> out;
    out.reserve(tasks_.size());
    for (const auto& t : tasks_) {
        out.push_back(t.get());
    }
    return out;
}

SimTime OsCore::busy_time() const {
    SimTime total;
    for (const auto& t : tasks_) {
        total += t->stats_.exec_time;
    }
    return total;
}

// ---- internal machinery ----

void OsCore::set_task_state(Task* t, TaskState s) {
    if (t->state_ == s) {
        return;
    }
    const TaskState from = t->state_;
    t->state_ = s;
    for (OsObserver* obs : observers_) {
        obs->on_task_state(*t, from, s, kernel_.now());
    }
}

void OsCore::add_observer(OsObserver* obs) {
    if (obs != nullptr) {
        observers_.push_back(obs);
    }
}

void OsCore::remove_observer(OsObserver* obs) {
    std::erase(observers_, obs);
}

void OsCore::enqueue_ready(Task* t) {
    t->arrival_seq_ = ++arrival_counter_;
    ready_->push(t);
    set_task_state(t, TaskState::Ready);
}

void OsCore::remove_ready(Task* t) {
    ready_->erase(t);
}

void OsCore::requeue_if_ready(Task* t) {
    if (t->state_ == TaskState::Ready) {
        ready_->requeue(t);
    }
}

Task* OsCore::pick_next() {
    sim::ScheduleController* ctl = kernel_.schedule_controller();
    if (ctl == nullptr) {
        return ready_->pop();
    }
    ties_scratch_.clear();
    ready_->ties(ties_scratch_);
    if (ties_scratch_.size() < 2) {
        return ready_->pop();
    }
    point_scratch_.kind = sim::SchedulePoint::Kind::TaskDispatch;
    point_scratch_.now = kernel_.now();
    point_scratch_.candidates.resize(ties_scratch_.size());
    for (std::size_t i = 0; i < ties_scratch_.size(); ++i) {
        point_scratch_.candidates[i] = ties_scratch_[i]->params_.name;
    }
    const std::size_t choice = ctl->choose(point_scratch_);
    SLM_ASSERT(choice < ties_scratch_.size(),
               "ScheduleController returned an out-of-range choice");
    Task* chosen = ties_scratch_[choice];
    ready_->erase(chosen);
    return chosen;
}

void OsCore::dispatch(Task* t) {
    running_ = t;
    reschedule_pending_ = false;
    quantum_used_ = SimTime::zero();
    set_task_state(t, TaskState::Running);
    ++stats_.dispatches;
    if (t != last_dispatched_) {
        ++stats_.context_switches;
        for (OsObserver* obs : observers_) {
            obs->on_context_switch(*t, last_dispatched_, kernel_.now());
        }
        t->switch_cost_due_ = !cfg_.context_switch_overhead.is_zero();
        last_dispatched_ = t;
    }
    kernel_.notify(*t->dispatch_evt_);
}

void OsCore::schedule() {
    if (!started_) {
        return;
    }
    if (running_ == nullptr) {
        if (!ready_->empty()) {
            // All tied candidates share the dispatch key, so *whether* to
            // dispatch is tie-independent; *which* task is a choice point.
            dispatch(pick_next());
        }
        return;
    }
    Task* best = ready_->peek();
    if (best != nullptr && policy_->preempts(*best, *running_)) {
        // The switch takes effect at the running task's next RTOS-call
        // boundary — the end of its current discrete delay step (paper
        // Fig. 8(b): preemption at t4 is delayed until t4').
        reschedule_pending_ = true;
    }
}

void OsCore::maybe_yield() {
    Task* selftask = running_;
    SLM_ASSERT(selftask != nullptr, "maybe_yield outside running task");
    if (!reschedule_pending_) {
        return;
    }
    reschedule_pending_ = false;
    const SimTime saved_quantum = quantum_used_;
    enqueue_ready(selftask);
    running_ = nullptr;
    Task* best = pick_next();
    SLM_ASSERT(best != nullptr, "ready queue lost the yielding task");
    if (best == selftask) {
        running_ = selftask;
        quantum_used_ = saved_quantum;
        set_task_state(selftask, TaskState::Running);
        return;
    }
    ++stats_.preemptions;
    ++selftask->stats_.preemptions;
    for (OsObserver* obs : observers_) {
        obs->on_preempt(*selftask, *best, kernel_.now());
    }
    dispatch(best);
    wait_dispatch(selftask);
}

void OsCore::rotate_quantum() {
    Task* selftask = running_;
    reschedule_pending_ = false;
    enqueue_ready(selftask);
    running_ = nullptr;
    Task* best = pick_next();
    if (best == selftask) {
        running_ = selftask;
        quantum_used_ = SimTime::zero();
        set_task_state(selftask, TaskState::Running);
        return;
    }
    dispatch(best);
    wait_dispatch(selftask);
}

void OsCore::apply_switch_cost(Task* t) {
    if (t->switch_cost_due_) {
        t->switch_cost_due_ = false;
        kernel_.waitfor(cfg_.context_switch_overhead);
    }
}

void OsCore::wait_dispatch(Task* t) {
    while (running_ != t) {
        kernel_.wait(*t->dispatch_evt_);
    }
    on_dispatched(t);
}

void OsCore::on_dispatched(Task* t) {
    if (fault_hook_ != nullptr && fault_hook_->crash_at_dispatch(*t)) {
        crash_running(t);  // unwinds this process; does not return
    }
    apply_switch_cost(t);
}

Task* OsCore::require_running_self(const char* what) {
    Task* t = self();
    SLM_ASSERT(t != nullptr, what);
    SLM_ASSERT(t == running_, what);
    return t;
}

bool OsCore::record_completion(Task* t) {
    const SimTime resp = kernel_.now() - t->release_time_;
    ++t->stats_.completions;
    t->stats_.total_response += resp;
    t->stats_.max_response = std::max(t->stats_.max_response, resp);
    const bool missed = kernel_.now() > t->abs_deadline_;
    if (missed) {
        ++t->stats_.deadline_misses;
        ++stats_.deadline_misses;
    }
    for (OsObserver* obs : observers_) {
        obs->on_completion(*t, resp, missed, kernel_.now());
    }
    return missed;
}

void OsCore::reschedule_after_boost() {
    schedule();
    if (running_ != nullptr && self() == running_) {
        maybe_yield();
    }
}

// ---- service interface ----

int OsCore::priority_boost(const Task* t) const {
    return t->inherited_priority_;
}

void OsCore::boost_priority(Task* t, int priority) {
    if (priority < t->inherited_priority_) {
        t->inherited_priority_ = priority;
        requeue_if_ready(t);  // re-sort if it sits in the ready queue
        reschedule_after_boost();
    }
}

void OsCore::restore_priority(Task* t, int saved) {
    t->inherited_priority_ = saved;
}

void OsCore::note_resource_block(const Task* blocked, const Task* holder,
                                 const std::string& resource) {
    SLM_ASSERT(blocked != nullptr && holder != nullptr, "note_resource_block(nullptr)");
    for (OsObserver* obs : observers_) {
        obs->on_resource_block(*blocked, *holder, resource, kernel_.now());
    }
}

void OsCore::note_resource_acquire(const Task* t, const std::string& resource,
                                   SimTime waited) {
    SLM_ASSERT(t != nullptr, "note_resource_acquire(nullptr)");
    for (OsObserver* obs : observers_) {
        obs->on_resource_acquire(*t, resource, waited, kernel_.now());
    }
    // Fault injection: a stalled holder burns execution time right after the
    // acquire, inside its critical section. Only meaningful when the acquiring
    // task is the one executing this call (the OsMutex lock path).
    if (fault_hook_ != nullptr && t == running_ && t == self()) {
        const SimTime stall = fault_hook_->stall_after_acquire(*t, resource);
        if (!stall.is_zero()) {
            exec_charge(running_, stall);
        }
    }
}

void OsCore::note_resource_release(const Task* t, const std::string& resource) {
    SLM_ASSERT(t != nullptr, "note_resource_release(nullptr)");
    for (OsObserver* obs : observers_) {
        obs->on_resource_release(*t, resource, kernel_.now());
    }
}

void OsCore::note_channel_op(const std::string& channel, const char* op) {
    for (OsObserver* obs : observers_) {
        obs->on_channel_op(channel, op, kernel_.now());
    }
}

// ---- task management ----

void OsCore::task_activate(Task* t) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "task_activate(nullptr)");
    switch (t->state_) {
        case TaskState::New: {
            sim::Process* proc = sim::this_process();
            SLM_ASSERT(proc != nullptr,
                       "task_activate(New) must run inside the task's process");
            SLM_ASSERT(self() == nullptr,
                       "this process is already bound to another task");
            t->proc_ = proc;
            t->pending_proc_ = nullptr;  // task_start's wrapper is now bound
            by_process_[proc] = t;
            t->release_time_ = kernel_.now();
            ++t->stats_.activations;
            if (t->params_.type == TaskType::Periodic) {
                t->next_release_ = kernel_.now() + t->params_.period;
                t->abs_deadline_ = kernel_.now() + (t->params_.deadline.is_zero()
                                                        ? t->params_.period
                                                        : t->params_.deadline);
            } else {
                t->abs_deadline_ = t->params_.deadline.is_zero()
                                       ? SimTime::max()
                                       : kernel_.now() + t->params_.deadline;
            }
            enqueue_ready(t);
            // Let sibling activations in the same simulated instant land
            // before the dispatch decision (zero-time delta yield): when a
            // `par` forks several child tasks at once, the scheduler must see
            // all of them and pick by policy, not by process start order
            // (paper Fig. 8(b): the higher-priority child runs first).
            kernel_.waitfor(SimTime::zero());
            schedule();
            wait_dispatch(t);
            return;
        }
        case TaskState::Suspended: {
            ++t->stats_.activations;
            t->release_time_ = kernel_.now();
            enqueue_ready(t);
            schedule();
            if (running_ != nullptr && self() == running_) {
                maybe_yield();
            }
            return;
        }
        case TaskState::Ready:
        case TaskState::Running:
            return;  // already active: no-op
        case TaskState::WaitingEvent:
        case TaskState::WaitingPeriod:
        case TaskState::Sleeping:
        case TaskState::ParWait:
        case TaskState::Terminated:
            SLM_ASSERT(false, "task_activate() on a waiting or terminated task");
    }
}

void OsCore::task_terminate() {
    ++stats_.syscalls;
    Task* t = require_running_self("task_terminate() requires the running task");
    if (t->params_.type == TaskType::Aperiodic) {
        // Periodic tasks record completions per cycle in task_endcycle();
        // terminating between cycles is not an extra completion.
        record_completion(t);
    }
    watchdog_cancel_internal(t);
    set_task_state(t, TaskState::Terminated);
    by_process_.erase(t->proc_);
    t->proc_ = nullptr;
    t->pending_proc_ = nullptr;
    running_ = nullptr;
    schedule();
}

void OsCore::task_sleep() {
    ++stats_.syscalls;
    Task* t = require_running_self("task_sleep() requires the running task");
    set_task_state(t, TaskState::Suspended);
    running_ = nullptr;
    schedule();
    wait_dispatch(t);
}

void OsCore::task_endcycle() {
    ++stats_.syscalls;
    Task* t = require_running_self("task_endcycle() requires the running task");
    SLM_ASSERT(t->params_.type == TaskType::Periodic,
               "task_endcycle() is only meaningful for periodic tasks");
    const bool missed = record_completion(t);

    // Deadline-miss recovery (MissPolicy). Ignore is the legacy path: the
    // miss was counted by record_completion and nothing else happens.
    bool skip_next = false;
    if (missed) {
        const MissPolicy policy = effective_miss_policy(*t);
        if (policy != MissPolicy::Ignore) {
            const SimTime overrun = kernel_.now() - t->abs_deadline_;
            for (OsObserver* obs : observers_) {
                obs->on_deadline_miss(*t, overrun, kernel_.now());
            }
        }
        switch (policy) {
            case MissPolicy::Ignore:
            case MissPolicy::Notify:
                break;
            case MissPolicy::SkipJob:
                ++stats_.jobs_skipped;
                ++t->stats_.jobs_skipped;
                skip_next = true;
                break;
            case MissPolicy::Restart:
                task_restart(t);  // self-restart unwinds; does not return
                SLM_ASSERT(false, "task_restart(self) returned");
                break;
            case MissPolicy::Kill:
                task_kill(t);  // self-kill unwinds; does not return
                SLM_ASSERT(false, "task_kill(self) returned");
                break;
        }
    }

    // Catch up if the cycle overran one or more whole periods.
    while (t->next_release_ <= kernel_.now()) {
        t->next_release_ += t->params_.period;
    }
    if (skip_next) {
        // SkipJob: drop one upcoming release beyond the catch-up, giving the
        // overrunning task a full idle period of slack.
        t->next_release_ += t->params_.period;
    }

    set_task_state(t, TaskState::WaitingPeriod);
    running_ = nullptr;
    schedule();

    // The wait for the next release consumes no CPU: it runs at SLDL level,
    // concurrently with whatever task was just dispatched.
    kernel_.waitfor(t->next_release_ - kernel_.now());

    t->release_time_ = kernel_.now();
    t->next_release_ = kernel_.now() + t->params_.period;
    t->abs_deadline_ = kernel_.now() + (t->params_.deadline.is_zero() ? t->params_.period
                                                                      : t->params_.deadline);
    ++t->stats_.activations;
    enqueue_ready(t);
    schedule();
    wait_dispatch(t);
}

void OsCore::task_kill(Task* t) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "task_kill(nullptr)");
    if (t->state_ == TaskState::Terminated) {
        return;
    }
    const bool killing_self = (t == self());

    switch (t->state_) {
        case TaskState::Running:
            SLM_ASSERT(t == running_, "Running task is not the dispatched task");
            running_ = nullptr;
            break;
        case TaskState::Ready:
            remove_ready(t);
            break;
        case TaskState::WaitingEvent:
            if (t->waiting_evt_ != nullptr) {
                std::erase(t->waiting_evt_->waiters_, t);
                t->waiting_evt_ = nullptr;
            }
            break;
        case TaskState::New:
        case TaskState::WaitingPeriod:
        case TaskState::Sleeping:
        case TaskState::Suspended:
        case TaskState::ParWait:
            break;
        case TaskState::Terminated:
            return;
    }
    {
        // Force-release resources the dying task holds (mutex cleanup hooks)
        // now that it has left every scheduler queue.
        TeardownScope teardown{in_teardown_};
        run_task_cleanup(t);
    }
    watchdog_cancel_internal(t);
    set_task_state(t, TaskState::Terminated);
    sim::Process* proc = t->proc_;
    if (proc == nullptr) {
        proc = t->pending_proc_;  // started but never bound (pre-activate kill)
    }
    if (t->proc_ != nullptr) {
        by_process_.erase(t->proc_);
        t->proc_ = nullptr;
    }
    t->pending_proc_ = nullptr;
    if (!killing_self) {
        schedule();
    }
    if (proc != nullptr) {
        kernel_.kill(*proc);  // self-kill: throws ProcessKilled, does not return
    }
}

void OsCore::task_set_priority(Task* t, int priority) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "task_set_priority(nullptr)");
    t->params_.priority = priority;
    requeue_if_ready(t);
    schedule();
    if (running_ != nullptr && self() == running_) {
        maybe_yield();
    }
}

Task* OsCore::par_start() {
    ++stats_.syscalls;
    Task* t = require_running_self("par_start() requires the running task");
    set_task_state(t, TaskState::ParWait);
    running_ = nullptr;
    schedule();
    return t;
}

void OsCore::par_end(Task* parent) {
    ++stats_.syscalls;
    SLM_ASSERT(parent != nullptr && parent->state_ == TaskState::ParWait,
               "par_end() expects the handle returned by par_start()");
    SLM_ASSERT(sim::this_process() == parent->proc_,
               "par_end() must be called by the suspended parent task");
    enqueue_ready(parent);
    schedule();
    wait_dispatch(parent);
}

// ---- event handling ----

OsEvent* OsCore::event_new(std::string name) {
    ++stats_.syscalls;
    if (name.empty()) {
        name = "evt" + std::to_string(events_.size());
    }
    events_.push_back(std::make_unique<OsEvent>(std::move(name)));
    return events_.back().get();
}

void OsCore::event_del(OsEvent* e) {
    ++stats_.syscalls;
    SLM_ASSERT(e != nullptr, "event_del(nullptr)");
    SLM_ASSERT(e->waiters_.empty(), "event_del() with tasks still waiting");
    std::erase_if(events_, [e](const auto& p) { return p.get() == e; });
}

void OsCore::event_wait(OsEvent* e) {
    ++stats_.syscalls;
    SLM_ASSERT(e != nullptr, "event_wait(nullptr)");
    Task* t = require_running_self("event_wait() requires the running task");
    e->waiters_.push_back(t);
    t->waiting_evt_ = e;
    set_task_state(t, TaskState::WaitingEvent);
    running_ = nullptr;
    schedule();
    wait_dispatch(t);
}

bool OsCore::event_wait_timeout(OsEvent* e, SimTime timeout) {
    ++stats_.syscalls;
    SLM_ASSERT(e != nullptr, "event_wait_timeout(nullptr)");
    SLM_ASSERT(!timeout.is_zero(), "event_wait_timeout() needs a non-zero timeout");
    Task* t = require_running_self("event_wait_timeout() requires the running task");
    const SimTime deadline = kernel_.now() + timeout;
    e->waiters_.push_back(t);
    t->waiting_evt_ = e;
    set_task_state(t, TaskState::WaitingEvent);
    running_ = nullptr;
    schedule();

    bool notified = true;
    while (running_ != t) {
        if (t->waiting_evt_ == e) {
            const SimTime remaining = deadline - kernel_.now();
            const bool dispatched =
                !remaining.is_zero() &&
                kernel_.wait_timeout(*t->dispatch_evt_, remaining);
            if (!dispatched && t->waiting_evt_ == e) {
                // RTOS-level timeout: leave the event queue and contend for
                // the CPU like any freshly readied task.
                std::erase(e->waiters_, t);
                t->waiting_evt_ = nullptr;
                notified = false;
                enqueue_ready(t);
                schedule();
            }
        } else {
            // Already readied by event_notify (or by the timeout above):
            // plain wait for the dispatcher.
            kernel_.wait(*t->dispatch_evt_);
        }
    }
    apply_switch_cost(t);
    return notified;
}

void OsCore::event_notify(OsEvent* e) {
    ++stats_.syscalls;
    SLM_ASSERT(e != nullptr, "event_notify(nullptr)");
    if (e->waiters_.empty()) {
        ++stats_.lost_notifies;
    }
    for (Task* t : e->waiters_) {
        t->waiting_evt_ = nullptr;
        enqueue_ready(t);
    }
    e->waiters_.clear();
    schedule();
    if (!in_teardown_ && running_ != nullptr && self() == running_) {
        // A task made others ready inside a system call: the scheduler runs
        // now, possibly switching away immediately.
        maybe_yield();
    }
}

// ---- time modeling ----

void OsCore::time_wait(SimTime dt) {
    ++stats_.syscalls;
    Task* t = require_running_self("time_wait() requires the running task");
    // Nominal work -> this PE's time first; fault transforms model wall-level
    // slowdowns of whatever the PE actually executes.
    dt = scaled_exec(dt);
    if (fault_hook_ != nullptr) {
        dt = fault_hook_->transform_exec(*t, dt);
    }
    // A reschedule pending from an earlier call takes effect before any of
    // this delay elapses.
    maybe_yield();
    exec_charge(t, dt);
}

void OsCore::io_wait(SimTime dt) {
    ++stats_.syscalls;
    Task* t = require_running_self("io_wait() requires the running task");
    if (fault_hook_ != nullptr) {
        dt = fault_hook_->transform_exec(*t, dt);
    }
    maybe_yield();
    exec_charge(t, dt);
}

SimTime OsCore::scaled_exec(SimTime nominal) const {
    if (cfg_.speed_num == 1 && cfg_.speed_den == 1) {
        return nominal;
    }
    const auto wide = static_cast<unsigned __int128>(nominal.ns()) * cfg_.speed_den;
    return SimTime{static_cast<std::uint64_t>(wide / cfg_.speed_num)};
}

void OsCore::exec_charge(Task* t, SimTime dt) {
    SimTime remaining = dt;
    const SimTime quantum = policy_->quantum();
    do {
        SimTime chunk = remaining;
        if (!cfg_.preemption_granularity.is_zero() && cfg_.preemption_granularity < chunk) {
            chunk = cfg_.preemption_granularity;
        }
        if (!quantum.is_zero()) {
            const SimTime left = quantum - quantum_used_;
            if (left.is_zero()) {
                rotate_quantum();
                continue;
            }
            if (left < chunk) {
                chunk = left;
            }
        }
        kernel_.waitfor(chunk);
        t->stats_.exec_time += chunk;
        quantum_used_ += chunk;
        remaining -= chunk;
        if (!quantum.is_zero() && quantum_used_ >= quantum && !remaining.is_zero()) {
            rotate_quantum();
        }
        // Yield between chunks only: when the delay has fully elapsed the
        // task's step is complete, and its completion timestamp must not
        // absorb a preemption landing exactly on the boundary (a pending
        // reschedule still takes effect at the next RTOS call).
        if (!remaining.is_zero()) {
            maybe_yield();
        }
    } while (!remaining.is_zero());
}

void OsCore::task_delay(SimTime dt) {
    ++stats_.syscalls;
    Task* t = require_running_self("task_delay() requires the running task");
    set_task_state(t, TaskState::Sleeping);
    running_ = nullptr;
    schedule();
    // The sleep itself consumes no CPU: it elapses at SLDL level while the
    // dispatcher runs other tasks.
    kernel_.waitfor(dt);
    enqueue_ready(t);
    schedule();
    wait_dispatch(t);
}

// ---- interrupts ----

void OsCore::isr_enter(const std::string& irq_name) {
    ++stats_.isr_entries;
    for (OsObserver* obs : observers_) {
        obs->on_isr(irq_name, kernel_.now());
    }
}

void OsCore::interrupt_return() {
    ++stats_.syscalls;
    schedule();
}

void OsCore::isr_deliver(const std::string& irq_name, std::function<void()> handler) {
    SLM_ASSERT(handler != nullptr, "isr_deliver() requires a handler");
    IsrFate fate;
    if (fault_hook_ != nullptr) {
        fate = fault_hook_->isr_fate(irq_name);
    }
    if (!fate.deliver) {
        return;  // dropped on the floor
    }
    if (!fate.delay.is_zero()) {
        // Deferred delivery rides a kernel one-shot timer; the handler then
        // runs in scheduler context, where event_notify's caller-side yield
        // guard is naturally inert (self() is null there).
        kernel_.post_at(kernel_.now() + fate.delay,
                        [this, irq_name, handler = std::move(handler),
                         extra = fate.extra_fires] {
                            deliver_isr_now(irq_name, handler, extra);
                        });
        return;
    }
    deliver_isr_now(irq_name, handler, fate.extra_fires);
}

void OsCore::deliver_isr_now(const std::string& irq_name,
                             const std::function<void()>& handler, unsigned extra) {
    for (unsigned i = 0; i <= extra; ++i) {
        isr_enter(irq_name);
        handler();
        interrupt_return();
    }
}

// ---- restartable bodies / recovery ----

void OsCore::task_set_body(Task* t, std::function<void()> body) {
    SLM_ASSERT(t != nullptr, "task_set_body(nullptr)");
    SLM_ASSERT(body != nullptr, "task_set_body() requires a body");
    t->body_ = std::move(body);
}

sim::Process* OsCore::task_start(Task* t, std::string process_name) {
    SLM_ASSERT(t != nullptr, "task_start(nullptr)");
    SLM_ASSERT(t->body_ != nullptr,
               "task_start() requires a body registered via task_set_body()");
    SLM_ASSERT(t->state_ == TaskState::New, "task_start() on a started task");
    SLM_ASSERT(t->pending_proc_ == nullptr, "task_start() called twice");
    if (!process_name.empty()) {
        t->proc_name_ = std::move(process_name);
    }
    spawn_task_process(t);
    return t->pending_proc_;
}

void OsCore::spawn_task_process(Task* t) {
    // The wrapper is byte-for-byte the hand-written spawn idiom the models
    // and personalities used before restartable bodies existed.
    t->pending_proc_ = kernel_.spawn(
        t->proc_name_.empty() ? t->params_.name : t->proc_name_, [this, t] {
            task_activate(t);
            t->body_();
            if (self() == t) {
                task_terminate();
            }
        });
}

void OsCore::task_restart(Task* t) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "task_restart(nullptr)");
    SLM_ASSERT(t->body_ != nullptr,
               "task_restart() requires a body registered via task_set_body()");
    sim::Process* old = t->proc_ != nullptr ? t->proc_ : t->pending_proc_;

    // Detach the dying incarnation from wherever it sits (mirrors task_kill;
    // kernel-level wakeups die with the old process when it is killed below).
    switch (t->state_) {
        case TaskState::Running:
            SLM_ASSERT(t == running_, "Running task is not the dispatched task");
            running_ = nullptr;
            break;
        case TaskState::Ready:
            remove_ready(t);
            break;
        case TaskState::WaitingEvent:
            if (t->waiting_evt_ != nullptr) {
                std::erase(t->waiting_evt_->waiters_, t);
                t->waiting_evt_ = nullptr;
            }
            break;
        case TaskState::New:
        case TaskState::WaitingPeriod:
        case TaskState::Sleeping:
        case TaskState::Suspended:
        case TaskState::ParWait:
        case TaskState::Terminated:  // revive (ITRON sta_tsk after ter_tsk)
            break;
    }
    {
        TeardownScope teardown{in_teardown_};
        run_task_cleanup(t);
    }
    ++stats_.restarts;
    for (OsObserver* obs : observers_) {
        obs->on_task_restart(*t, kernel_.now());
    }
    if (t->proc_ != nullptr) {
        by_process_.erase(t->proc_);
        t->proc_ = nullptr;
    }
    t->pending_proc_ = nullptr;

    // Reset the incarnation's accounting; the restart counter itself survives.
    const std::uint64_t restarts = t->stats_.restarts + 1;
    t->stats_ = TaskStats{};
    t->stats_.restarts = restarts;
    t->inherited_priority_ = std::numeric_limits<int>::max();
    t->switch_cost_due_ = false;
    t->release_time_ = SimTime{};
    t->next_release_ = SimTime{};
    t->abs_deadline_ = SimTime::max();
    if (last_dispatched_ == t) {
        last_dispatched_ = nullptr;  // the fresh incarnation is a real switch
    }
    set_task_state(t, TaskState::New);
    spawn_task_process(t);
    if (!t->wd_timeout_.is_zero()) {
        watchdog_schedule(t);  // a configured watchdog restarts its countdown
    }
    schedule();
    if (old != nullptr) {
        kernel_.kill(*old);  // self-restart: throws ProcessKilled, no return
    }
}

void OsCore::crash_running(Task* t) {
    SLM_ASSERT(t == running_ && t == self(),
               "crash_running() targets the freshly dispatched task");
    ++stats_.crashes;
    for (OsObserver* obs : observers_) {
        obs->on_task_crash(*t, kernel_.now());
    }
    running_ = nullptr;
    {
        TeardownScope teardown{in_teardown_};
        run_task_cleanup(t);
    }
    // Deliberately NOT cancelling the watchdog: an armed watchdog firing
    // after the crash is the recovery path (Restart revives the task).
    set_task_state(t, TaskState::Terminated);
    sim::Process* proc = t->proc_;
    by_process_.erase(proc);
    t->proc_ = nullptr;
    t->pending_proc_ = nullptr;
    schedule();
    kernel_.kill(*proc);  // throws ProcessKilled out of the dispatch path
    std::abort();         // unreachable: kill(self) never returns
}

void OsCore::run_task_cleanup(Task* t) {
    for (std::size_t i = 0; i < cleanup_hooks_.size(); ++i) {
        cleanup_hooks_[i].second(t);
    }
}

std::uint64_t OsCore::add_task_cleanup(std::function<void(Task*)> fn) {
    SLM_ASSERT(fn != nullptr, "add_task_cleanup() requires a hook");
    const std::uint64_t id = next_cleanup_id_++;
    cleanup_hooks_.emplace_back(id, std::move(fn));
    return id;
}

void OsCore::remove_task_cleanup(std::uint64_t id) {
    std::erase_if(cleanup_hooks_, [id](const auto& h) { return h.first == id; });
}

// ---- watchdogs ----

void OsCore::watchdog_arm(Task* t, SimTime timeout, MissPolicy action) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "watchdog_arm(nullptr)");
    SLM_ASSERT(!timeout.is_zero(), "watchdog_arm() needs a non-zero timeout");
    t->wd_timeout_ = timeout;
    t->wd_action_ = action;
    watchdog_schedule(t);
}

void OsCore::watchdog_kick(Task* t) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "watchdog_kick(nullptr)");
    SLM_ASSERT(!t->wd_timeout_.is_zero(), "watchdog_kick() before watchdog_arm()");
    watchdog_schedule(t);
}

void OsCore::watchdog_disarm(Task* t) {
    ++stats_.syscalls;
    SLM_ASSERT(t != nullptr, "watchdog_disarm(nullptr)");
    watchdog_cancel_internal(t);
    t->wd_timeout_ = SimTime{};
}

bool OsCore::watchdog_armed(const Task* t) const {
    SLM_ASSERT(t != nullptr, "watchdog_armed(nullptr)");
    return t->wd_pending_;
}

void OsCore::watchdog_schedule(Task* t) {
    ++t->wd_gen_;
    if (t->wd_pending_) {
        kernel_.cancel_timer(t->wd_timer_);
    }
    const std::uint64_t gen = t->wd_gen_;
    t->wd_pending_ = true;
    t->wd_timer_ = kernel_.post_at(kernel_.now() + t->wd_timeout_,
                                   [this, t, gen] { watchdog_fire(t, gen); });
}

void OsCore::watchdog_cancel_internal(Task* t) {
    ++t->wd_gen_;
    if (t->wd_pending_) {
        kernel_.cancel_timer(t->wd_timer_);
        t->wd_pending_ = false;
    }
}

void OsCore::watchdog_fire(Task* t, std::uint64_t gen) {
    if (gen != t->wd_gen_ || !t->wd_pending_) {
        return;  // superseded by a kick/disarm racing the timer
    }
    t->wd_pending_ = false;
    ++stats_.watchdog_fires;
    for (OsObserver* obs : observers_) {
        obs->on_watchdog(*t, kernel_.now());
    }
    switch (t->wd_action_) {
        case MissPolicy::Ignore:
        case MissPolicy::Notify:
        case MissPolicy::SkipJob:
            // Counted + observed only. SkipJob has no job to skip here — the
            // next endcycle applies the task's own policy.
            break;
        case MissPolicy::Restart:
            task_restart(t);  // timer context: never a self-restart
            break;
        case MissPolicy::Kill:
            if (t->state_ != TaskState::Terminated) {
                task_kill(t);  // timer context: never a self-kill
            }
            break;
    }
}

}  // namespace slm::rtos
