#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "rtos/core.hpp"
#include "sim/time.hpp"

namespace slm::obs {

/// One detected unbounded-priority-inversion window: while `blocked` (the
/// high-priority task) waited for `resource` held by `holder`, a middle-
/// priority task `intervener` — not part of the blocking chain, so its
/// running contributes nothing to releasing the resource — occupied the CPU
/// from `start` to `end`. Under Protocol::None such windows can grow without
/// bound (the Mars-Pathfinder failure mode); priority inheritance or ceiling
/// keeps them from opening at all because the holder runs boosted.
struct InversionFinding {
    SimTime start;
    SimTime end;
    std::string blocked;     ///< the starved high-priority task
    std::string holder;      ///< direct holder of the resource
    std::string intervener;  ///< middle-priority task that ran instead
    std::string resource;    ///< the contended mutex
    /// The blocking chain at detection time: blocked, its holder, that
    /// holder's holder (if itself blocked), ... — the tasks whose progress
    /// *would* release `blocked`.
    std::vector<std::string> chain;
};

/// Online per-task timing analytics, computed from OsCore observer callbacks
/// at the instant each event happens — no post-hoc trace walk, no tracer
/// required. Attach to a core and every number lands in the given Registry:
///
///   - slm_task_sched_latency_ns   histogram, ready -> dispatch per task
///   - slm_task_response_ns        histogram, release -> completion per job
///   - slm_task_blocking_ns_total  counter, time spent blocked on mutexes
///   - slm_task_preempted_total    counter, involuntary CPU losses
///   - slm_task_jobs_total         counter, completed jobs
///   - slm_task_missed_total       counter, jobs completed past the deadline
///   - slm_os_switches_total       counter, dispatches that changed the task
///   - slm_os_dispatches_total     counter, all dispatches
///   - slm_os_isr_total            counter, ISR entries
///   - slm_os_inversions_total     counter, inversion windows detected
///   - slm_os_crashes_total        counter, injected task crashes
///   - slm_os_restarts_total       counter, task_restart() recoveries
///   - slm_os_watchdog_total       counter, watchdog expirations
///   - slm_task_miss_recovery_ns   histogram, first miss -> next on-time job
///
/// Per-task series carry {task="<name>"}; all series carry {cpu="<cpu_name>"}.
/// Everything is derived from personality-neutral OsCore events, so the same
/// model run under the paper API and under ITRON produces identical values
/// (pinned by tests/test_conformance.cpp).
///
/// The priority-inversion detector watches dispatches while some task is
/// blocked on a mutex: when the dispatched task is neither in the blocked
/// task's blocking chain nor of higher effective priority, the chain is
/// starved — an unbounded-inversion window opens. It closes when a chain
/// member gets the CPU (progress) or the blocked task acquires the resource.
/// Findings (with the full chain) accumulate in findings().
class RtosAnalytics final : public rtos::OsObserver {
public:
    /// Attaches to `os` (OsCore::add_observer); detaches in the destructor.
    /// The registry must outlive this object; the core may die first — its
    /// teardown notification clears the back-reference, and every collected
    /// number lives in the registry/findings, so results stay readable after
    /// the model run returns.
    RtosAnalytics(rtos::OsCore& os, Registry& registry);
    ~RtosAnalytics() override;

    RtosAnalytics(const RtosAnalytics&) = delete;
    RtosAnalytics& operator=(const RtosAnalytics&) = delete;

    // ---- OsObserver ----
    void on_task_state(const rtos::Task& t, rtos::TaskState from, rtos::TaskState to,
                       SimTime now) override;
    void on_context_switch(const rtos::Task& to, const rtos::Task* from,
                           SimTime now) override;
    void on_preempt(const rtos::Task& preempted, const rtos::Task& by,
                    SimTime now) override;
    void on_completion(const rtos::Task& t, SimTime response, bool missed,
                       SimTime now) override;
    void on_isr(const std::string& irq_name, SimTime now) override;
    void on_resource_block(const rtos::Task& blocked, const rtos::Task& holder,
                           const std::string& resource, SimTime now) override;
    void on_resource_acquire(const rtos::Task& t, const std::string& resource,
                             SimTime waited, SimTime now) override;
    void on_task_crash(const rtos::Task& t, SimTime now) override;
    void on_task_restart(const rtos::Task& t, SimTime now) override;
    void on_watchdog(const rtos::Task& t, SimTime now) override;
    void on_core_teardown() override;

    // ---- results ----
    [[nodiscard]] const std::vector<InversionFinding>& findings() const {
        return findings_;
    }
    /// Scheduling-latency histogram of one task (nullptr before its first
    /// observed event). Shortcut into the registry.
    [[nodiscard]] const Histogram* latency_histogram(const std::string& task) const;
    /// Response-time histogram of one task (nullptr before its first job).
    [[nodiscard]] const Histogram* response_histogram(const std::string& task) const;

    [[nodiscard]] Registry& registry() { return reg_; }

private:
    /// Per-task lazily-created series handles + transient state.
    struct Watch {
        Histogram* latency = nullptr;
        Histogram* response = nullptr;
        Histogram* miss_recovery = nullptr;
        Counter* blocking_ns = nullptr;
        Counter* preempted = nullptr;
        Counter* jobs = nullptr;
        Counter* missed = nullptr;
        SimTime ready_since{};
        bool ready_valid = false;
        SimTime miss_since{};   ///< first miss of the current miss streak
        bool miss_open = false; ///< inside a streak (missing until on-time job)
    };
    /// One wait-for edge: the task this struct is keyed by waits for
    /// `resource`, currently held by `holder`.
    struct BlockEdge {
        const rtos::Task* holder = nullptr;
        std::string resource;
        SimTime since{};
    };
    /// An open inversion window for one blocked task.
    struct OpenWindow {
        SimTime start{};
        std::string intervener;
        std::string holder;
        std::string resource;
        std::vector<std::string> chain;
    };

    Watch& watch(const rtos::Task& t);
    [[nodiscard]] Labels task_labels(const rtos::Task& t) const;
    /// Blocking chain of `t` as task pointers: holder, holder's holder, ...
    /// Cycle-safe (a deadlock yields a finite chain).
    [[nodiscard]] std::vector<const rtos::Task*> chain_of(const rtos::Task& t) const;
    void check_inversions(const rtos::Task& running, SimTime now);
    void close_window(const rtos::Task& blocked, SimTime now);

    rtos::OsCore* os_;  ///< nulled by on_core_teardown when the core dies first
    Registry& reg_;
    Labels cpu_labels_;
    Counter* switches_ = nullptr;
    Counter* dispatches_ = nullptr;
    Counter* isrs_ = nullptr;
    Counter* inversions_ = nullptr;
    Counter* crashes_ = nullptr;
    Counter* restarts_ = nullptr;
    Counter* watchdogs_ = nullptr;
    std::unordered_map<const rtos::Task*, Watch> watches_;
    std::unordered_map<const rtos::Task*, BlockEdge> blocked_;
    std::unordered_map<const rtos::Task*, OpenWindow> windows_;
    std::vector<InversionFinding> findings_;
};

}  // namespace slm::obs
