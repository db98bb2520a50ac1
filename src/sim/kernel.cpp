#include "sim/kernel.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>

#include "sim/assert.hpp"

namespace slm::sim {

namespace {
thread_local Kernel* g_current_kernel = nullptr;
}  // namespace

Kernel& this_kernel() {
    SLM_ASSERT(g_current_kernel != nullptr,
               "this_kernel() called outside of Kernel::run()");
    return *g_current_kernel;
}

Process* this_process() {
    return g_current_kernel != nullptr ? g_current_kernel->current() : nullptr;
}

Kernel::Kernel(KernelConfig cfg)
    : cfg_(cfg),
      backend_(resolve_backend(cfg.backend)),
      stack_pool_(cfg.guard_pages) {}

Kernel::~Kernel() {
    // Stacks of processes still alive at teardown (simulation aborted early)
    // go back to the pool so its destructor frees every mapping exactly once.
    // Their suspended frames are abandoned without unwinding, as before.
    for (auto& p : processes_) {
        if (p->stack_) {
            stack_pool_.release(p->stack_);
            p->stack_ = StackBlock{};
        }
    }
}

Process* Kernel::spawn(std::string name, std::function<void()> body) {
    SLM_ASSERT(body != nullptr, "spawn() requires a process body");
    auto proc = std::unique_ptr<Process>(
        new Process(*this, std::move(name), std::move(body), current_, next_id_++));
    Process* p = proc.get();
    processes_.push_back(std::move(proc));
    // Degenerate stack_size requests (0, or below the documented floor) clamp
    // to KernelConfig::kMinStackSize; the pool then rounds to its size class.
    p->stack_ = stack_pool_.acquire(
        std::max(cfg_.stack_size, KernelConfig::kMinStackSize));
    p->ctx_.init(p->stack_.base, p->stack_.size, &Kernel::trampoline, p, backend_);
    sync_stack_stats();
    ++stats_.processes_created;
    make_ready(p);
    return p;
}

void Kernel::recycle_stack(Process* p) {
    if (p->stack_) {
        stack_pool_.release(p->stack_);
        p->stack_ = StackBlock{};
        sync_stack_stats();
    }
    p->body_ = nullptr;
}

void Kernel::sync_stack_stats() {
    stats_.stack_bytes_in_use = stack_pool_.bytes_in_use();
    stats_.stacks_recycled = stack_pool_.recycled();
    stats_.guard_pages_disabled = stack_pool_.guard_pages_disabled() ? 1 : 0;
}

void Kernel::make_ready(Process* p) {
    if (p->done()) {
        return;
    }
    set_state(p, ProcState::Ready);
    if (!p->in_runnable_) {
        runnable_.push_back(p);
        p->in_runnable_ = true;
    }
}

void Kernel::set_state(Process* p, ProcState s) {
    if (p->state_ == s) {
        return;
    }
    const ProcState from = p->state_;
    p->state_ = s;
    for (KernelObserver* obs : observers_) {
        obs->on_process_state(*p, from, s);
    }
}

void Kernel::consult_controller() {
    // Surface a DeltaOrder choice point: which of the currently runnable
    // processes executes next. candidates[0] is the FIFO front, so a
    // controller answering 0 leaves the deterministic order untouched.
    // Most calls see fewer than two live processes; they return before
    // touching the reused point.
    const auto live = static_cast<std::size_t>(std::count_if(
        runnable_.begin(), runnable_.end(), [](const Process* p) { return !p->done(); }));
    if (live < 2) {
        return;
    }
    point_.now = now_;
    point_.candidates.resize(live);
    auto name = point_.candidates.begin();
    for (const Process* p : runnable_) {
        if (!p->done()) {
            *name++ = p->name();
        }
    }
    std::size_t choice = controller_->choose(point_);
    SLM_ASSERT(choice < live, "ScheduleController returned an out-of-range choice");
    if (choice != 0) {
        // The choice-th live entry (done processes are not candidates).
        const auto it = std::find_if(runnable_.begin(), runnable_.end(),
                                     [&choice](const Process* p) {
                                         return !p->done() && choice-- == 0;
                                     });
        Process* chosen = *it;
        runnable_.erase(it);
        runnable_.push_front(chosen);
    }
}

void Kernel::drain_runnable() {
    while (!runnable_.empty()) {
        if (controller_ != nullptr) {
            consult_controller();
        }
        Process* p = runnable_.front();
        runnable_.pop_front();
        p->in_runnable_ = false;
        if (p->done()) {
            continue;
        }
        set_state(p, ProcState::Running);
        current_ = p;
        ++stats_.process_activations;
        Context::switch_to(sched_ctx_, p->ctx_, backend_);
        current_ = nullptr;
        if (p->done()) {
            recycle_stack(p);
        }
        if (abort_reason_.has_value()) {
            return;  // a SimulationAbort unwound p; stop dispatching
        }
    }
}

void Kernel::end_delta() {
    // Deliver notifications at the delta boundary (SpecC semantics): every
    // process waiting on a notified event at this point wakes, including
    // processes whose wait() ran later in the delta than the notify().
    for (Event* e : notified_events_) {
        e->notified_ = false;
        for (Process* w : e->waiters_) {
            w->waiting_on_ = nullptr;
            ++w->wake_token_;  // cancel a pending wait_timeout() deadline
            make_ready(w);
        }
        e->waiters_.clear();
    }
    notified_events_.clear();
    ++stats_.delta_cycles;
}

bool Kernel::advance_time(SimTime limit) {
    // A timed entry is live for a process sleeping in waitfor() and for a
    // process whose wait_timeout() deadline is still armed.
    const auto live = [](const TimedEntry& e) {
        return e.token == e.p->wake_token_ &&
               (e.p->state_ == ProcState::WaitingTime ||
                e.p->state_ == ProcState::WaitingEvent);
    };
    const auto fire = [this](const TimedEntry& e) {
        if (e.p->state_ == ProcState::WaitingEvent) {
            // wait_timeout() expired: leave the event's waiter list and
            // resume with the timeout flag set.
            if (e.p->waiting_on_ != nullptr) {
                std::erase(e.p->waiting_on_->waiters_, e.p);
                e.p->waiting_on_ = nullptr;
            }
            e.p->timed_out_ = true;
        }
        make_ready(e.p);
    };

    // Skim dead entries from both queues first: a cancelled timer or a
    // superseded process wakeup must not drag simulated time forward.
    while (!timed_.empty() && !live(timed_.top())) {
        timed_.pop();
    }
    while (!timer_q_.empty() &&
           timer_fns_.find(timer_q_.top().id) == timer_fns_.end()) {
        timer_q_.pop();
    }
    if (timed_.empty() && timer_q_.empty()) {
        return false;
    }
    SimTime next = SimTime::max();
    if (!timed_.empty()) {
        next = timed_.top().t;
    }
    if (!timer_q_.empty() && timer_q_.top().t < next) {
        next = timer_q_.top().t;
    }
    if (next > limit) {
        return false;
    }
    now_ = next;
    ++stats_.time_advances;
    for (KernelObserver* obs : observers_) {
        obs->on_time_advance(now_);
    }
    // One-shot timers fire before process wakeups at the same instant: they
    // model OS/interrupt machinery reacting ahead of application code. The
    // loop re-reads the top so a callback posting for the same instant still
    // runs within it.
    while (!timer_q_.empty() && timer_q_.top().t == now_) {
        const TimerEntry e = timer_q_.top();
        timer_q_.pop();
        auto it = timer_fns_.find(e.id);
        if (it == timer_fns_.end()) {
            continue;  // cancelled after the skim above (by an earlier callback)
        }
        const std::function<void()> fn = std::move(it->second);
        timer_fns_.erase(it);
        fn();
    }
    while (!timed_.empty() && timed_.top().t == now_) {
        const TimedEntry e = timed_.top();
        timed_.pop();
        if (live(e)) {
            fire(e);
        }
    }
    return true;
}

Kernel::TimerId Kernel::post_at(SimTime t, std::function<void()> fn) {
    SLM_ASSERT(fn != nullptr, "post_at() requires a callback");
    SLM_ASSERT(t >= now_, "post_at() cannot schedule into the past");
    SLM_ASSERT(t != SimTime::max(), "post_at(SimTime::max()) would never fire");
    const TimerId id = next_timer_id_++;
    timer_fns_.emplace(id, std::move(fn));
    timer_q_.push(TimerEntry{t, seq_counter_++, id});
    return id;
}

void Kernel::cancel_timer(TimerId id) {
    timer_fns_.erase(id);
}

void Kernel::run() {
    (void)run_until(SimTime::max());
}

bool Kernel::run_until(SimTime t_end) {
    SLM_ASSERT(!running_, "Kernel::run() is not reentrant");
    running_ = true;
    Kernel* const prev = g_current_kernel;
    g_current_kernel = this;
    // Restore the thread-local and the running flag even if an exception (a
    // SimulationAbort raised outside process context, e.g. from an assert
    // handler in the scheduler path) escapes the loop below.
    struct RunGuard {
        Kernel* self;
        Kernel* prev;
        ~RunGuard() {
            g_current_kernel = prev;
            self->running_ = false;
        }
    } guard{this, prev};
    sched_ctx_.adopt_thread_stack();  // ASan fiber bookkeeping; no-op otherwise

    for (;;) {
        drain_runnable();
        if (abort_reason_.has_value()) {
            return !timed_.empty() || !timer_fns_.empty();
        }
        end_delta();
        if (!runnable_.empty()) {
            continue;  // a notification at delta end made processes runnable
        }
        if (!advance_time(t_end)) {
            break;
        }
    }

    if (t_end != SimTime::max() && now_ < t_end) {
        now_ = t_end;
    }

    // Any remaining top-of-queue entries are real future activity (stale ones
    // were popped by advance_time when it last ran); a live one-shot timer is
    // pending activity too.
    return !timed_.empty() || !timer_fns_.empty();
}

std::vector<const Process*> Kernel::blocked_processes() const {
    std::vector<const Process*> out;
    for (const auto& p : processes_) {
        if (p->state_ == ProcState::WaitingEvent || p->state_ == ProcState::Joining) {
            out.push_back(p.get());
        }
    }
    return out;
}

void Kernel::check_killed() {
    if (current_ != nullptr && current_->kill_pending_) {
        throw ProcessKilled{};
    }
}

void Kernel::block_current_and_reschedule() {
    Process* self = current_;
    Context::switch_to(self->ctx_, sched_ctx_, backend_);
}

void Kernel::wait(Event& e) {
    SLM_ASSERT(current_ != nullptr, "wait() requires process context");
    check_killed();
    Process* self = current_;
    set_state(self, ProcState::WaitingEvent);
    self->waiting_on_ = &e;
    e.waiters_.push_back(self);
    block_current_and_reschedule();
    check_killed();
}

bool Kernel::wait_timeout(Event& e, SimTime dt) {
    SLM_ASSERT(current_ != nullptr, "wait_timeout() requires process context");
    SLM_ASSERT(dt != SimTime::max(), "wait_timeout() needs a finite timeout");
    check_killed();
    Process* self = current_;
    self->timed_out_ = false;
    set_state(self, ProcState::WaitingEvent);
    self->waiting_on_ = &e;
    e.waiters_.push_back(self);
    timed_.push(TimedEntry{now_ + dt, seq_counter_++, self, ++self->wake_token_});
    block_current_and_reschedule();
    check_killed();
    return !self->timed_out_;
}

void Kernel::waitfor(SimTime dt) {
    SLM_ASSERT(current_ != nullptr, "waitfor() requires process context");
    SLM_ASSERT(dt != SimTime::max(), "waitfor(SimTime::max()) would never wake");
    check_killed();
    Process* self = current_;
    set_state(self, ProcState::WaitingTime);
    timed_.push(TimedEntry{now_ + dt, seq_counter_++, self, ++self->wake_token_});
    block_current_and_reschedule();
    check_killed();
}

void Kernel::yield() {
    SLM_ASSERT(current_ != nullptr, "yield() requires process context");
    check_killed();
    Process* self = current_;
    set_state(self, ProcState::Ready);
    runnable_.push_back(self);
    self->in_runnable_ = true;
    block_current_and_reschedule();
    check_killed();
}

void Kernel::notify(Event& e) {
    if (!e.notified_) {
        e.notified_ = true;
        notified_events_.push_back(&e);
    }
    ++stats_.events_notified;
}

void Kernel::par(std::vector<Branch> branches) {
    SLM_ASSERT(current_ != nullptr, "par() requires process context");
    check_killed();
    if (branches.empty()) {
        return;
    }
    Process* self = current_;
    self->join_pending_ = static_cast<int>(branches.size());
    for (auto& b : branches) {
        spawn(std::move(b.name), std::move(b.body));
    }
    set_state(self, ProcState::Joining);
    block_current_and_reschedule();
    check_killed();
}

void Kernel::par(std::initializer_list<std::function<void()>> bodies) {
    std::vector<Branch> branches;
    branches.reserve(bodies.size());
    int i = 0;
    for (const auto& b : bodies) {
        branches.push_back(Branch{current_->name() + ".par" + std::to_string(i++), b});
    }
    par(std::move(branches));
}

void Kernel::join(Process& p) {
    SLM_ASSERT(current_ != nullptr, "join() requires process context");
    SLM_ASSERT(current_ != &p, "a process cannot join itself");
    while (!p.done()) {
        if (!p.done_evt_) {
            p.done_evt_ = std::make_unique<Event>(*this, p.name_ + ".done");
        }
        wait(*p.done_evt_);
    }
}

void Kernel::kill(Process& p) {
    if (p.done()) {
        return;
    }
    const bool was_pending = p.kill_pending_;
    p.kill_pending_ = true;
    if (&p == current_) {
        throw ProcessKilled{};
    }
    if (was_pending) {
        return;
    }
    switch (p.state_) {
        case ProcState::WaitingEvent:
            if (p.waiting_on_ != nullptr) {  // null if the event was destroyed
                std::erase(p.waiting_on_->waiters_, &p);
                p.waiting_on_ = nullptr;
            }
            make_ready(&p);
            break;
        case ProcState::WaitingTime:
            ++p.wake_token_;  // invalidate the pending timed-queue entry
            make_ready(&p);
            break;
        case ProcState::Joining:
            make_ready(&p);
            break;
        case ProcState::Created:
        case ProcState::Ready:
            // Already (or about to be) runnable; it unwinds on next dispatch.
            make_ready(&p);
            break;
        case ProcState::Running:
        case ProcState::Done:
        case ProcState::Killed:
            SLM_ASSERT(false, "unexpected state in kill()");
    }
}

void Kernel::finish_current(ProcState final_state) {
    Process* p = current_;
    set_state(p, final_state);
    if (p->done_evt_) {
        notify(*p->done_evt_);
    }
    if (p->parent_ != nullptr && p->parent_->state_ == ProcState::Joining) {
        if (--p->parent_->join_pending_ == 0) {
            make_ready(p->parent_);
        }
    }
    Context::switch_to(p->ctx_, sched_ctx_, backend_, /*finishing=*/true);
    SLM_ASSERT(false, "a finished process was resumed");
}

void Kernel::trampoline(void* raw) {
    auto* p = static_cast<Process*>(raw);
    Kernel& k = p->kernel_;
    ProcState final_state = ProcState::Done;
    if (p->kill_pending_) {
        final_state = ProcState::Killed;  // killed before it ever ran
    } else {
        try {
            p->body_();
        } catch (const ProcessKilled&) {
            final_state = ProcState::Killed;
        } catch (const SimulationAbort& a) {
            // The process asked to stop the whole simulation (typically via
            // the exploration assert handler). Record the reason; the run
            // loop stops dispatching once this process has unwound.
            k.abort_reason_ = a.reason;
            final_state = ProcState::Killed;
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "slm: unhandled exception in process '%s': %s\n",
                         p->name_.c_str(), ex.what());
            std::abort();
        } catch (...) {
            std::fprintf(stderr, "slm: unhandled exception in process '%s'\n",
                         p->name_.c_str());
            std::abort();
        }
        if (p->kill_pending_) {
            final_state = ProcState::Killed;
        }
    }
    k.finish_current(final_state);
}

// ---- Process ----

const char* to_string(ProcState s) {
    switch (s) {
        case ProcState::Created: return "Created";
        case ProcState::Ready: return "Ready";
        case ProcState::Running: return "Running";
        case ProcState::WaitingEvent: return "WaitingEvent";
        case ProcState::WaitingTime: return "WaitingTime";
        case ProcState::Joining: return "Joining";
        case ProcState::Done: return "Done";
        case ProcState::Killed: return "Killed";
    }
    return "?";
}

Process::Process(Kernel& kernel, std::string name, std::function<void()> body,
                 Process* parent, int id)
    : kernel_(kernel),
      name_(std::move(name)),
      body_(std::move(body)),
      parent_(parent),
      id_(id) {}

// ---- Event ----

Event::Event(Kernel& kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {}

Event::~Event() {
    // An event may be destroyed while processes still wait on it — e.g. when a
    // model is torn down after run_until() stopped the simulation early.
    // Detach the waiters: they stay blocked forever, which is the correct
    // outcome for an aborted simulation, and kill() tolerates the null link.
    for (Process* w : waiters_) {
        w->waiting_on_ = nullptr;
    }
    waiters_.clear();
    if (notified_) {
        std::erase(kernel_.notified_events_, this);
    }
}

void Event::notify() {
    kernel_.notify(*this);
}

}  // namespace slm::sim
