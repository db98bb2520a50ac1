#include "obs/analytics.hpp"

#include <algorithm>

namespace slm::obs {

namespace {
const char* kLatencyHelp = "scheduling latency: ready -> dispatch (ns)";
const char* kResponseHelp = "response time: release -> completion (ns)";
const char* kRecoveryHelp =
    "deadline-miss recovery latency: first missed completion -> next on-time "
    "completion (ns)";
}  // namespace

RtosAnalytics::RtosAnalytics(rtos::OsCore& os, Registry& registry)
    : os_(&os), reg_(registry) {
    cpu_labels_ = Labels{{"cpu", os.config().cpu_name}};
    switches_ = &reg_.counter("slm_os_switches_total",
                              "dispatches where the running task changed", cpu_labels_);
    dispatches_ = &reg_.counter("slm_os_dispatches_total", "task dispatches observed",
                                cpu_labels_);
    isrs_ = &reg_.counter("slm_os_isr_total", "ISR entries observed", cpu_labels_);
    inversions_ = &reg_.counter("slm_os_inversions_total",
                                "unbounded priority-inversion windows detected",
                                cpu_labels_);
    crashes_ = &reg_.counter("slm_os_crashes_total", "injected task crashes",
                             cpu_labels_);
    restarts_ = &reg_.counter("slm_os_restarts_total",
                              "task_restart() recoveries", cpu_labels_);
    watchdogs_ = &reg_.counter("slm_os_watchdog_total", "watchdog expirations",
                               cpu_labels_);
    os_->add_observer(this);
}

RtosAnalytics::~RtosAnalytics() {
    if (os_ != nullptr) {
        os_->remove_observer(this);
    }
}

void RtosAnalytics::on_core_teardown() { os_ = nullptr; }

Labels RtosAnalytics::task_labels(const rtos::Task& t) const {
    Labels labels = cpu_labels_;
    labels.emplace_back("task", t.name());
    return labels;
}

RtosAnalytics::Watch& RtosAnalytics::watch(const rtos::Task& t) {
    const auto it = watches_.find(&t);
    if (it != watches_.end()) {
        return it->second;
    }
    const Labels labels = task_labels(t);
    Watch w;
    w.latency = &reg_.histogram("slm_task_sched_latency_ns", kLatencyHelp,
                                Histogram::default_time_bounds_ns(), labels);
    w.response = &reg_.histogram("slm_task_response_ns", kResponseHelp,
                                 Histogram::default_time_bounds_ns(), labels);
    w.miss_recovery = &reg_.histogram("slm_task_miss_recovery_ns", kRecoveryHelp,
                                      Histogram::default_time_bounds_ns(), labels);
    w.blocking_ns = &reg_.counter("slm_task_blocking_ns_total",
                                  "time blocked on contended resources (ns)", labels);
    w.preempted = &reg_.counter("slm_task_preempted_total",
                                "involuntary CPU losses", labels);
    w.jobs = &reg_.counter("slm_task_jobs_total", "completed jobs", labels);
    w.missed = &reg_.counter("slm_task_missed_total",
                             "jobs completed past the deadline", labels);
    return watches_.emplace(&t, w).first->second;
}

void RtosAnalytics::on_task_state(const rtos::Task& t, rtos::TaskState /*from*/,
                                  rtos::TaskState to, SimTime now) {
    Watch& w = watch(t);
    if (to == rtos::TaskState::Ready) {
        w.ready_since = now;
        w.ready_valid = true;
        return;
    }
    if (to != rtos::TaskState::Running) {
        return;
    }
    if (w.ready_valid) {
        w.latency->observe(static_cast<double>((now - w.ready_since).ns()));
        w.ready_valid = false;
    }
    dispatches_->inc();
    check_inversions(t, now);
}

void RtosAnalytics::on_context_switch(const rtos::Task& /*to*/,
                                      const rtos::Task* /*from*/, SimTime /*now*/) {
    switches_->inc();
}

void RtosAnalytics::on_preempt(const rtos::Task& preempted, const rtos::Task& /*by*/,
                               SimTime /*now*/) {
    watch(preempted).preempted->inc();
}

void RtosAnalytics::on_completion(const rtos::Task& t, SimTime response, bool missed,
                                  SimTime now) {
    Watch& w = watch(t);
    w.response->observe(static_cast<double>(response.ns()));
    w.jobs->inc();
    if (missed) {
        w.missed->inc();
        if (!w.miss_open) {
            w.miss_open = true;  // streak opens at the first missed job
            w.miss_since = now;
        }
    } else if (w.miss_open) {
        // First on-time job after a miss streak: the recovery latency is how
        // long the task was out of spec.
        w.miss_recovery->observe(static_cast<double>((now - w.miss_since).ns()));
        w.miss_open = false;
    }
}

void RtosAnalytics::on_isr(const std::string& /*irq_name*/, SimTime /*now*/) {
    isrs_->inc();
}

void RtosAnalytics::on_resource_block(const rtos::Task& blocked,
                                      const rtos::Task& holder,
                                      const std::string& resource, SimTime now) {
    const auto it = blocked_.find(&blocked);
    if (it != blocked_.end() && it->second.resource == resource) {
        it->second.holder = &holder;  // lock re-stolen: new holder, same wait
        return;
    }
    blocked_[&blocked] = BlockEdge{&holder, resource, now};
}

void RtosAnalytics::on_resource_acquire(const rtos::Task& t,
                                        const std::string& /*resource*/,
                                        SimTime waited, SimTime now) {
    watch(t).blocking_ns->inc(waited.ns());
    close_window(t, now);
    blocked_.erase(&t);
}

void RtosAnalytics::on_task_crash(const rtos::Task& t, SimTime /*now*/) {
    crashes_->inc();
    // The crashed incarnation's waits die with it.
    blocked_.erase(&t);
    windows_.erase(&t);
}

void RtosAnalytics::on_task_restart(const rtos::Task& t, SimTime /*now*/) {
    restarts_->inc();
    blocked_.erase(&t);
    windows_.erase(&t);
    Watch& w = watch(t);
    w.ready_valid = false;  // a fresh incarnation starts with clean transients
}

void RtosAnalytics::on_watchdog(const rtos::Task& /*t*/, SimTime /*now*/) {
    watchdogs_->inc();
}

std::vector<const rtos::Task*> RtosAnalytics::chain_of(const rtos::Task& t) const {
    std::vector<const rtos::Task*> chain;
    const rtos::Task* cur = &t;
    for (;;) {
        const auto it = blocked_.find(cur);
        if (it == blocked_.end()) {
            break;
        }
        const rtos::Task* holder = it->second.holder;
        if (std::find(chain.begin(), chain.end(), holder) != chain.end() ||
            holder == &t) {
            break;  // deadlock cycle — the chain is what we walked so far
        }
        chain.push_back(holder);
        cur = holder;
    }
    return chain;
}

void RtosAnalytics::check_inversions(const rtos::Task& running, SimTime now) {
    for (const auto& [blocked, edge] : blocked_) {
        if (blocked == &running) {
            continue;
        }
        const std::vector<const rtos::Task*> chain = chain_of(*blocked);
        const bool in_chain =
            std::find(chain.begin(), chain.end(), &running) != chain.end();
        if (in_chain) {
            // Progress: a chain member holds the CPU, the wait is bounded by
            // its critical section. Close any open window.
            close_window(*blocked, now);
            continue;
        }
        // The dispatched task does nothing toward releasing the resource. If
        // the blocked task outranks it, the blocked task is starved through
        // no chain of its own making: unbounded inversion.
        if (blocked->effective_priority() < running.effective_priority()) {
            OpenWindow& w = windows_[blocked];
            if (w.chain.empty()) {  // freshly opened
                w.start = now;
                w.intervener = running.name();
                w.holder = edge.holder->name();
                w.resource = edge.resource;
                for (const rtos::Task* c : chain) {
                    w.chain.push_back(c->name());
                }
                if (w.chain.empty()) {
                    w.chain.push_back(edge.holder->name());
                }
            }
            // Already open: the window simply extends until close_window().
        }
    }
}

void RtosAnalytics::close_window(const rtos::Task& blocked, SimTime now) {
    const auto it = windows_.find(&blocked);
    if (it == windows_.end()) {
        return;
    }
    OpenWindow& w = it->second;
    InversionFinding f;
    f.start = w.start;
    f.end = now;
    f.blocked = blocked.name();
    f.holder = w.holder;
    f.intervener = w.intervener;
    f.resource = w.resource;
    f.chain = std::move(w.chain);
    findings_.push_back(std::move(f));
    inversions_->inc();
    windows_.erase(it);
}

const Histogram* RtosAnalytics::latency_histogram(const std::string& task) const {
    Labels labels = cpu_labels_;
    labels.emplace_back("task", task);
    return reg_.find_histogram("slm_task_sched_latency_ns", labels);
}

const Histogram* RtosAnalytics::response_histogram(const std::string& task) const {
    Labels labels = cpu_labels_;
    labels.emplace_back("task", task);
    return reg_.find_histogram("slm_task_response_ns", labels);
}

}  // namespace slm::obs
