#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtos/scheduler.hpp"
#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"

namespace slm::rtos {

class OsCore;
class OsEvent;

/// Task kinds supported by the model (paper §4.1): periodic hard real-time
/// tasks with a critical deadline, and aperiodic tasks with a fixed priority.
enum class TaskType { Aperiodic, Periodic };

/// RTOS-level task states (layered above sim::ProcState; the paper implements
/// task management "in a customary manner where tasks transition between
/// different states and a task queue is associated with each state").
enum class TaskState {
    New,            ///< TCB created, no process bound yet
    Ready,          ///< runnable, in the ready queue
    Running,        ///< the one task executing on this core
    WaitingEvent,   ///< blocked in event_wait()
    WaitingPeriod,  ///< periodic task between end-of-cycle and next release
    Sleeping,       ///< task_delay()ed until a wall-clock instant
    Suspended,      ///< task_sleep()ed, until task_activate()
    ParWait,        ///< parent task suspended in par_start()/par_end()
    Terminated,     ///< finished (task_terminate) or killed (task_kill)
};

/// What the core does when a periodic task completes a cycle past its
/// absolute deadline (task_endcycle), and what a fired watchdog does to its
/// task. `Ignore` preserves the classic accounting-only behavior; every other
/// policy additionally raises the on_deadline_miss observer callback.
enum class MissPolicy {
    Ignore,   ///< count the miss, change nothing (legacy behavior)
    Notify,   ///< count + raise on_deadline_miss; scheduling unchanged
    SkipJob,  ///< drop the next release to let the task catch up
    Restart,  ///< task_restart(): re-enter the task body, stats reset
    Kill,     ///< task_kill(): terminate the offender
};

[[nodiscard]] const char* to_string(TaskState s);
[[nodiscard]] const char* to_string(TaskType t);
[[nodiscard]] const char* to_string(MissPolicy p);

/// Static task attributes passed to task_create.
struct TaskParams {
    std::string name;
    TaskType type = TaskType::Aperiodic;
    /// Fixed priority; smaller number = higher priority. Used by the Priority
    /// and RoundRobin policies (EDF/RMS derive ordering from deadlines/periods).
    int priority = 0;
    SimTime period{};    ///< release period (Periodic tasks)
    SimTime wcet{};      ///< worst-case execution time per cycle (informational + analysis)
    /// Relative deadline; zero means "= period" for periodic tasks and
    /// "none" (background) for aperiodic tasks under EDF.
    SimTime deadline{};
    /// Deadline-miss recovery policy for this task; unset falls back to
    /// RtosConfig::default_miss_policy. Applied at task_endcycle().
    std::optional<MissPolicy> miss_policy;
};

/// Per-task measured statistics.
struct TaskStats {
    std::uint64_t activations = 0;      ///< releases (periodic) / activations
    std::uint64_t preemptions = 0;      ///< times this task lost the CPU involuntarily
    std::uint64_t deadline_misses = 0;  ///< completions after the absolute deadline
    SimTime exec_time{};                ///< accumulated time_wait() execution time
    SimTime max_response{};             ///< max release-to-completion latency
    SimTime total_response{};           ///< sum of response times (for averages)
    std::uint64_t completions = 0;      ///< completed cycles/activations
    std::uint64_t restarts = 0;         ///< task_restart() invocations (survives the reset)
    std::uint64_t jobs_skipped = 0;     ///< releases dropped by MissPolicy::SkipJob
};

/// Task control block. Created via OsCore::task_create (the paper's `proc`
/// handle); owned by the core. Application code treats it as an opaque
/// handle with read-only accessors.
class Task {
public:
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    [[nodiscard]] const std::string& name() const { return params_.name; }
    [[nodiscard]] const TaskParams& params() const { return params_; }
    [[nodiscard]] TaskState state() const { return state_; }
    [[nodiscard]] const TaskStats& stats() const { return stats_; }
    /// Effective priority: base priority unless boosted by priority
    /// inheritance (see OsMutex).
    [[nodiscard]] int effective_priority() const {
        return inherited_priority_ < params_.priority ? inherited_priority_
                                                      : params_.priority;
    }
    [[nodiscard]] SimTime absolute_deadline() const { return abs_deadline_; }
    [[nodiscard]] SimTime release_time() const { return release_time_; }
    /// Monotone stamp refreshed each time the task enters the ready queue;
    /// policies use it for FIFO ordering and tie-breaking.
    [[nodiscard]] std::uint64_t arrival_seq() const { return arrival_seq_; }
    /// Configured watchdog timeout (zero = none); see OsCore::watchdog_arm.
    [[nodiscard]] SimTime wd_timeout() const { return wd_timeout_; }
    [[nodiscard]] MissPolicy wd_action() const { return wd_action_; }
    /// True if a body was registered via task_set_body (required for restart).
    [[nodiscard]] bool restartable() const { return body_ != nullptr; }

private:
    friend class OsCore;
    friend class ReadyQueue;  // intrusive ready-queue link access
    friend struct ReadyQueueProbe;  // tests set queue keys directly

    Task(OsCore& os, TaskParams params);

    OsCore& os_;
    TaskParams params_;
    TaskState state_ = TaskState::New;
    sim::Process* proc_ = nullptr;  ///< bound at task_activate time
    std::unique_ptr<sim::Event> dispatch_evt_;
    ReadyLink rq_link_;             ///< owned by the scheduler's ReadyQueue

    SimTime release_time_{};
    SimTime next_release_{};
    SimTime abs_deadline_ = SimTime::max();
    OsEvent* waiting_evt_ = nullptr;  ///< valid while state_ == WaitingEvent
    int inherited_priority_ = std::numeric_limits<int>::max();
    std::uint64_t arrival_seq_ = 0;  ///< FIFO stamp, refreshed on each enqueue
    bool switch_cost_due_ = false;
    TaskStats stats_;

    // Restartable-body support (task_set_body/task_start/task_restart).
    std::function<void()> body_;         ///< re-entrant body; empty = not restartable
    std::string proc_name_;              ///< process name used by task_start (restart reuses it)
    sim::Process* pending_proc_ = nullptr;  ///< spawned wrapper not yet bound by task_activate

    // Watchdog (see OsCore::watchdog_arm). Generation tokens invalidate
    // callbacks from superseded arms/kicks.
    SimTime wd_timeout_{};               ///< zero = not configured
    MissPolicy wd_action_ = MissPolicy::Notify;
    sim::Kernel::TimerId wd_timer_ = 0;
    bool wd_pending_ = false;
    std::uint64_t wd_gen_ = 0;
};

/// RTOS event (the paper's `evt`, allocated with event_new). Unlike SLDL
/// events, RTOS events queue *tasks*, and a notify with no waiting task is
/// lost — stateful synchronization belongs in the os_channels built on top.
class OsEvent {
public:
    explicit OsEvent(std::string name) : name_(std::move(name)) {}
    OsEvent(const OsEvent&) = delete;
    OsEvent& operator=(const OsEvent&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

private:
    friend class OsCore;
    std::string name_;
    std::vector<Task*> waiters_;
};

/// Observer hook for OS-level instrumentation: online timing analytics
/// (obs::RtosAnalytics), test assertions, custom monitors. All callbacks run
/// synchronously inside the core at the instant the event happens; they must
/// not call blocking OS or kernel APIs and must not mutate the model —
/// observing never changes scheduling. Both API personalities (paper-style
/// RtosModel, ITRON-style ItronOs) emit through these hooks because the
/// hooks live in the shared OsCore.
class OsObserver {
public:
    virtual ~OsObserver() = default;

    /// A task's RTOS-level state changed (fires for every transition,
    /// including Ready→Running dispatches and Running→Ready preemptions).
    virtual void on_task_state(const Task& /*t*/, TaskState /*from*/, TaskState /*to*/,
                               SimTime /*now*/) {}
    /// The running task is about to lose the CPU involuntarily to `by`
    /// (counted as a preemption in the stats).
    virtual void on_preempt(const Task& /*preempted*/, const Task& /*by*/,
                            SimTime /*now*/) {}
    /// A task completed a job: an activation (aperiodic) or one periodic
    /// cycle. `response` is release→completion latency; `missed` is true when
    /// completion passed the absolute deadline.
    virtual void on_completion(const Task& /*t*/, SimTime /*response*/, bool /*missed*/,
                               SimTime /*now*/) {}
    /// `to` was dispatched and differs from `from`, the task dispatched before
    /// it (nullptr: none yet, or that task was restarted since) — the one
    /// definition of a context switch, counted in RtosStats::context_switches.
    virtual void on_context_switch(const Task& /*to*/, const Task* /*from*/,
                                   SimTime /*now*/) {}
    /// An ISR body was entered (isr_enter).
    virtual void on_isr(const std::string& /*irq_name*/, SimTime /*now*/) {}
    /// `blocked` is about to wait for a resource (mutex) currently held by
    /// `holder` — reported by the services layer via note_resource_block().
    virtual void on_resource_block(const Task& /*blocked*/, const Task& /*holder*/,
                                   const std::string& /*resource*/, SimTime /*now*/) {}
    /// `t` acquired a resource after waiting `waited` (zero when uncontended).
    virtual void on_resource_acquire(const Task& /*t*/, const std::string& /*resource*/,
                                     SimTime /*waited*/, SimTime /*now*/) {}
    /// `t` released a resource it held.
    virtual void on_resource_release(const Task& /*t*/, const std::string& /*resource*/,
                                     SimTime /*now*/) {}
    /// An OS communication channel (queue, semaphore) performed `op` — a
    /// static string like "send"/"recv"/"acquire"/"release" — reported by the
    /// channel layer via note_channel_op().
    virtual void on_channel_op(const std::string& /*channel*/, const char* /*op*/,
                               SimTime /*now*/) {}
    /// A periodic task completed a cycle `overrun` past its absolute deadline
    /// and its effective MissPolicy is not Ignore. Raised from task_endcycle()
    /// before the recovery action runs.
    virtual void on_deadline_miss(const Task& /*t*/, SimTime /*overrun*/,
                                  SimTime /*now*/) {}
    /// `t`'s watchdog expired (before its recovery action runs).
    virtual void on_watchdog(const Task& /*t*/, SimTime /*now*/) {}
    /// `t` is being restarted via task_restart(); fires before the stats reset
    /// so observers can snapshot the dying incarnation.
    virtual void on_task_restart(const Task& /*t*/, SimTime /*now*/) {}
    /// `t` crashed at dispatch (fault injection); fires before teardown.
    virtual void on_task_crash(const Task& /*t*/, SimTime /*now*/) {}
    /// The observed core is being destroyed. Observers that can outlive the
    /// core (e.g. an obs::RtosAnalytics whose results are read after the
    /// model run returns) drop their core reference here instead of
    /// detaching in their destructor.
    virtual void on_core_teardown() {}
};

/// What fault injection does to one interrupt delivery (FaultHook::isr_fate).
struct IsrFate {
    bool deliver = true;      ///< false: drop the interrupt entirely
    SimTime delay{};          ///< non-zero: deliver after this much simulated time
    unsigned extra_fires = 0; ///< spurious repeats delivered right after the real one
};

/// Fault-injection hook consulted by the core at well-defined points. The
/// default implementation of every method is a no-op, and with no hook
/// installed (the default) the core's behavior is bit-for-bit unchanged —
/// conformance and replay baselines stay valid. slm::fault::FaultInjector is
/// the seeded, plan-driven implementation; tests may install ad-hoc ones.
class FaultHook {
public:
    virtual ~FaultHook() = default;

    /// Transform a time_wait() execution delay (scale/jitter/overrun).
    virtual SimTime transform_exec(const Task& /*t*/, SimTime dt) { return dt; }
    /// Decide the fate of an interrupt about to be delivered via isr_deliver().
    virtual IsrFate isr_fate(const std::string& /*irq_name*/) { return {}; }
    /// True to crash `t` at this dispatch (task dies as if its code faulted).
    virtual bool crash_at_dispatch(const Task& /*t*/) { return false; }
    /// Extra execution time `t` burns right after acquiring `resource`
    /// (models a stalled mutex holder). Zero = no stall.
    virtual SimTime stall_after_acquire(const Task& /*t*/,
                                        const std::string& /*resource*/) {
        return {};
    }
};

/// Core construction parameters (shared by every personality).
struct RtosConfig {
    /// Name of the processing element this core runs on; used as the
    /// `cpu` field of trace records.
    std::string cpu_name = "cpu0";
    /// Default scheduling policy (can be overridden by start(policy)).
    SchedPolicy policy = SchedPolicy::Priority;
    /// Round-robin time slice.
    SimTime quantum = milliseconds(1);
    /// Modeled cost of a context switch, charged to the incoming task.
    SimTime context_switch_overhead{};
    /// Chop time_wait() delays into chunks of at most this size so preemption
    /// can take effect earlier (paper §4.3: "the accuracy of preemption
    /// results is limited by the granularity of task delay models"). Zero
    /// means no chopping: one chunk per time_wait call.
    SimTime preemption_granularity{};
    /// Heterogeneous-PE execution scaling (the paper's Fig. 1 flow maps tasks
    /// onto candidate architectures whose PEs run at different raw speeds): a
    /// nominal execution delay dt passed to time_wait() is charged as
    /// dt * speed_den / speed_num on this core. speed_num/speed_den > 1
    /// models a faster PE (a DSP charging half the time for the same nominal
    /// work at 2/1), < 1 a slower one. Exact integer arithmetic keeps runs
    /// deterministic, and the 1/1 default is bit-identical to the unscaled
    /// core. Time with an externally fixed duration (bus occupancy, device
    /// I/O) goes through io_wait(), which never scales.
    std::uint32_t speed_num = 1;
    std::uint32_t speed_den = 1;
    /// Deadline-miss policy for tasks that do not set TaskParams::miss_policy.
    /// Ignore preserves the pre-recovery behavior exactly.
    MissPolicy default_miss_policy = MissPolicy::Ignore;
};

/// Core-instance statistics.
struct RtosStats {
    std::uint64_t context_switches = 0;  ///< dispatches where the task changed
    std::uint64_t dispatches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t isr_entries = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t syscalls = 0;  ///< RTOS interface invocations
    /// event_notify() calls that found no waiting task. RTOS events are lossy
    /// by design, so a nonzero count is not itself a bug (semaphore releases
    /// with no contender land here) — but for pure-event protocols it flags a
    /// signal the intended receiver never saw. The schedule explorer can
    /// treat it as a safety property (ExploreConfig::check_lost_signals).
    std::uint64_t lost_notifies = 0;
    std::uint64_t crashes = 0;         ///< fault-injected task crashes (crash_at_dispatch)
    std::uint64_t restarts = 0;        ///< task_restart() invocations
    std::uint64_t watchdog_fires = 0;  ///< expired per-task watchdogs
    std::uint64_t jobs_skipped = 0;    ///< releases dropped by MissPolicy::SkipJob
};

/// The OS core: the bottom layer of the layered RTOS model.
///
/// One instance models the kernel of one processing element. It owns task
/// lifecycle (TCBs, states, the ready queue), the context-handoff protocol
/// (per-task dispatch events serializing tasks over the SLDL kernel), the
/// reschedule protocol (deferred preemption at delay-step boundaries,
/// paper Fig. 8(b): t4 → t4'), events, and time services. It knows nothing
/// about API flavors: *personalities* (the paper-style RtosModel, the
/// ITRON-style ItronOs) are thin veneers mapping their standard's call set
/// onto this class, and the *services* layer (os_channels.hpp) builds
/// stateful synchronization from the narrow service interface below.
///
/// Infrastructure — schedule exploration, Gantt tracing, deadlock checking,
/// architecture modeling — targets OsCore, so every personality inherits it
/// for free.
class OsCore {
public:
    explicit OsCore(sim::Kernel& kernel, RtosConfig cfg = {});
    ~OsCore();

    OsCore(const OsCore&) = delete;
    OsCore& operator=(const OsCore&) = delete;

    // ---- operating system management ----

    /// Reset kernel data structures. Must be called before any task_create.
    void init();

    /// Begin multi-task scheduling with the configured policy.
    void start();
    /// Begin multi-task scheduling with an explicit policy (paper signature).
    void start(SchedPolicy policy);

    /// Notify the kernel that an interrupt service routine has finished; the
    /// scheduler runs and may dispatch a task the ISR made ready.
    void interrupt_return();

    /// Bracket an ISR body (bookkeeping + trace). The arch layer calls
    /// isr_enter() when an interrupt fires; models written by hand may too.
    void isr_enter(const std::string& irq_name);

    /// Deliver one interrupt through the fault-injection layer: with no
    /// FaultHook installed this is exactly isr_enter(); handler();
    /// interrupt_return(). A hook may drop the delivery, defer it by a
    /// kernel one-shot timer, or replay it spuriously. The preferred ISR
    /// idiom for architecture models (the arch layer uses it). The handler
    /// is copied only when delivery is deferred.
    void isr_deliver(const std::string& irq_name, const std::function<void()>& handler);

    // ---- task management ----

    /// Allocate a task control block. The returned handle is bound to an SLDL
    /// process by the first task_activate() call made from that process.
    Task* task_create(TaskParams params);

    /// Terminate the calling task and dispatch the next one.
    void task_terminate();

    /// Suspend the calling task until another task task_activate()s it.
    void task_sleep();

    /// Dual purpose (paper §4.1/§4.4):
    ///  - called from the task's own (unbound) process: binds the process to
    ///    the TCB, enters the ready queue, and blocks until dispatched;
    ///  - called on a Suspended task from elsewhere: moves it back to ready.
    void task_activate(Task* t);

    /// Periodic tasks: end the current cycle, wait for the next release.
    void task_endcycle();

    /// Forcibly terminate another task (or the caller, = task_terminate).
    void task_kill(Task* t);

    /// Register a re-entrant body for `t`, enabling task_start()/task_restart().
    /// The body is the task's whole lifetime (task_activate through the final
    /// work); task_start's wrapper appends the task_terminate().
    void task_set_body(Task* t, std::function<void()> body);

    /// Spawn the SLDL process that runs `t`'s registered body: the wrapper
    /// performs task_activate(t); body(); task_terminate(). `process_name`
    /// defaults to the task name. Not itself a modeled syscall — it matches
    /// the hand-written spawn idiom byte-for-byte.
    sim::Process* task_start(Task* t, std::string process_name = {});

    /// Tear down `t`'s current incarnation and re-enter its registered body
    /// from the top: cleanup hooks run (mutexes force-released with PI/PC
    /// state restored), per-task stats reset (TaskStats::restarts survives),
    /// the old process is killed and a fresh one spawned. Works on any state
    /// including Terminated (revive). Calling it on self unwinds immediately.
    void task_restart(Task* t);

    // ---- watchdogs ----
    //
    // A per-task one-shot countdown built on the kernel's post_at timers.
    // arm() configures and starts it; kick() restarts the countdown (the
    // healthy-task heartbeat); expiry bumps the watchdog counters, raises
    // on_watchdog, and applies `action` (Restart revives even a crashed or
    // terminated task — crash_at_dispatch deliberately leaves the watchdog
    // pending so it doubles as the crash-recovery mechanism).

    void watchdog_arm(Task* t, SimTime timeout, MissPolicy action);
    /// Restart the countdown from now. Requires a prior watchdog_arm().
    void watchdog_kick(Task* t);
    /// Cancel the countdown and forget the configuration.
    void watchdog_disarm(Task* t);
    /// True while a countdown is pending (armed and neither fired nor kicked-off).
    [[nodiscard]] bool watchdog_armed(const Task* t) const;

    /// Change a task's base priority at runtime (smaller = higher). The
    /// scheduler re-evaluates immediately; lowering the caller's own priority
    /// may switch away inside this call.
    void task_set_priority(Task* t, int priority);

    /// Suspend the calling task for dynamic fork: call before an SLDL `par`
    /// that spawns child tasks. Returns the suspended task handle.
    Task* par_start();

    /// Resume the parent task after the SLDL `par` joined.
    void par_end(Task* parent);

    // ---- event handling ----

    OsEvent* event_new(std::string name = {});
    void event_del(OsEvent* e);
    /// Block the calling task until the event is notified.
    void event_wait(OsEvent* e);
    /// Block until the event is notified or `timeout` elapses. Returns true
    /// if the event arrived; false if the task timed out (it then re-entered
    /// the ready queue and was redispatched normally).
    [[nodiscard]] bool event_wait_timeout(OsEvent* e, SimTime timeout);
    /// Move all tasks waiting on `e` to ready; reschedule.
    void event_notify(OsEvent* e);

    // ---- time modeling ----

    /// Model `dt` of task execution time; replaces `waitfor` in refined tasks
    /// (the wrapper that lets the RTOS kernel reschedule when time increases).
    /// `dt` is *nominal* work: the charged time is scaled_exec(dt), so a task
    /// migrated to a faster/slower PE (RtosConfig::speed_num/speed_den)
    /// charges proportionally less/more without touching its model source.
    void time_wait(SimTime dt);

    /// Model `dt` of task-occupied time whose duration is fixed externally —
    /// bus occupancy, device I/O — and therefore must NOT scale with the PE
    /// speed. Identical to time_wait() (preemptible chunks, exec accounting,
    /// fault transform) except that scaled_exec() is skipped; on a 1/1 core
    /// the two calls are bit-identical.
    void io_wait(SimTime dt);

    /// The execution time this core charges for `nominal` work:
    /// nominal * speed_den / speed_num, in exact 128-bit intermediate
    /// arithmetic (truncating division).
    [[nodiscard]] SimTime scaled_exec(SimTime nominal) const;

    /// Suspend the calling task for `dt` of simulated time *without consuming
    /// CPU* (the classic RTOS delay()/taskDelay() service): other tasks run
    /// during the sleep, and the caller re-enters the ready queue afterwards.
    void task_delay(SimTime dt);

    // ---- service interface ----
    //
    // The narrow surface the services layer (os_channels.hpp) builds on, in
    // addition to the event operations above. Priority boosts model the
    // inheritance/ceiling protocols of OsMutex without letting services reach
    // into TCB internals: a boost never lowers the effective priority, and
    // restore_priority() reinstates a level previously read with
    // priority_boost() (the mutex save/restore discipline).

    /// Current boost level of `t` (numeric level; INT_MAX = no boost).
    [[nodiscard]] int priority_boost(const Task* t) const;
    /// Raise `t`'s boost to `priority` if that is higher (numerically lower);
    /// re-sorts the ready queue and reschedules immediately. No-op otherwise.
    void boost_priority(Task* t, int priority);
    /// Reinstate a boost level previously read with priority_boost(). Takes
    /// effect at the next reschedule (the releasing service is expected to
    /// trigger one, e.g. via event_notify).
    void restore_priority(Task* t, int saved);

    /// Resource-contention notifications, forwarded verbatim to OsObservers.
    /// The services layer (OsMutex) reports who blocks on whom and for how
    /// long, so online analytics can measure blocking time and walk blocking
    /// chains without reaching into channel internals. Purely observational:
    /// calling or omitting them never changes scheduling.
    void note_resource_block(const Task* blocked, const Task* holder,
                             const std::string& resource);
    void note_resource_acquire(const Task* t, const std::string& resource,
                               SimTime waited);
    void note_resource_release(const Task* t, const std::string& resource);
    /// Channel-operation notification (OsQueue/OsSemaphore), forwarded to
    /// OsObservers like the resource notes above. `op` must be a static
    /// string ("send", "recv", "acquire", "release").
    void note_channel_op(const std::string& channel, const char* op);

    /// Register a hook run whenever a task is torn down abnormally
    /// (task_kill, task_restart, fault-injected crash) — services use it to
    /// force-release resources the dying task holds (OsMutex registers one in
    /// its constructor). Returns an id for remove_task_cleanup(). Hooks run
    /// after the task has left every scheduler queue; event_notify calls they
    /// make defer their preemption to the caller's next RTOS boundary, the
    /// same discipline task_kill always had.
    std::uint64_t add_task_cleanup(std::function<void(Task*)> fn);
    void remove_task_cleanup(std::uint64_t id);

    /// Install the fault-injection hook (nullptr = none, the default; the
    /// no-hook path is bit-identical to the pre-fault core).
    void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
    [[nodiscard]] FaultHook* fault_hook() const { return fault_hook_; }

    /// The deadline-miss policy in effect for `t` (task override or config default).
    [[nodiscard]] MissPolicy effective_miss_policy(const Task& t) const {
        return t.params().miss_policy.value_or(cfg_.default_miss_policy);
    }

    // ---- introspection ----

    /// Attach an instrumentation observer (callbacks in attachment order).
    void add_observer(OsObserver* obs);
    void remove_observer(OsObserver* obs);

    [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
    [[nodiscard]] const RtosConfig& config() const { return cfg_; }
    [[nodiscard]] const RtosStats& stats() const { return stats_; }
    [[nodiscard]] const SchedulerPolicy& policy() const { return *policy_; }
    [[nodiscard]] Task* running_task() const { return running_; }
    [[nodiscard]] bool started() const { return started_; }
    /// The task bound to the calling SLDL process (nullptr if unbound).
    [[nodiscard]] Task* self() const;
    [[nodiscard]] std::vector<const Task*> tasks() const;
    /// Sum of all tasks' modeled execution time (CPU busy time).
    [[nodiscard]] SimTime busy_time() const;

private:
    void enqueue_ready(Task* t);
    void remove_ready(Task* t);
    /// Re-sort a Ready task whose scheduling key changed (priority boost /
    /// task_set_priority); no-op for tasks in other states.
    void requeue_if_ready(Task* t);
    void set_task_state(Task* t, TaskState s);
    /// Remove and return the next task to dispatch. Equals ready_->pop()
    /// unless a sim::ScheduleController is installed on the kernel, in which
    /// case policy-equivalent ties become a TaskDispatch choice point.
    Task* pick_next();
    void dispatch(Task* t);
    void apply_switch_cost(Task* t);
    void schedule();
    void maybe_yield();
    void rotate_quantum();
    /// Count `preempted`'s involuntary CPU loss to `by` and raise on_preempt.
    void count_preemption(Task* preempted, Task* by);
    /// by_pid_ entry for `p`, grown on demand.
    Task*& pid_slot(const sim::Process* p);
    void wait_dispatch(Task* t);
    /// Crash check + switch cost, run by the task that just won the CPU.
    void on_dispatched(Task* t);
    [[nodiscard]] Task* require_running_self(const char* what);
    /// Returns true when the completion missed the absolute deadline.
    bool record_completion(Task* t);
    void reschedule_after_boost();
    /// The time_wait() charging loop (quantum + granularity chopping) without
    /// the syscall bookkeeping; also used to model injected stalls.
    void exec_charge(Task* t, SimTime dt);
    /// Kill the dispatched task as if its code faulted. Unwinds the caller.
    [[noreturn]] void crash_running(Task* t);
    void deliver_isr_now(const std::string& irq_name,
                         const std::function<void()>& handler, unsigned extra);
    void spawn_task_process(Task* t);
    void run_task_cleanup(Task* t);
    void watchdog_schedule(Task* t);
    void watchdog_cancel_internal(Task* t);
    void watchdog_fire(Task* t, std::uint64_t gen);

    sim::Kernel& kernel_;
    RtosConfig cfg_;
    std::unique_ptr<SchedulerPolicy> policy_;
    std::vector<std::unique_ptr<Task>> tasks_;
    std::vector<std::unique_ptr<OsEvent>> events_;
    std::unique_ptr<ReadyQueue> ready_;
    /// Bound task per sim::Process::id() (nullptr: none), so self() is O(1).
    std::vector<Task*> by_pid_;
    Task* running_ = nullptr;
    Task* last_dispatched_ = nullptr;
    bool reschedule_pending_ = false;
    bool started_ = false;
    std::uint64_t arrival_counter_ = 0;
    SimTime quantum_used_{};
    // Reused by pick_next(), so a choice point allocates nothing.
    std::vector<Task*> ties_scratch_;
    sim::SchedulePoint point_scratch_;
    std::vector<OsObserver*> observers_;
    std::vector<std::pair<std::uint64_t, std::function<void(Task*)>>> cleanup_hooks_;
    std::uint64_t next_cleanup_id_ = 1;
    FaultHook* fault_hook_ = nullptr;
    /// While set, event_notify() defers its caller-side maybe_yield — cleanup
    /// hooks run mid-teardown and must not switch away with the dying task
    /// half-dismantled (the pending reschedule still lands at the caller's
    /// next RTOS boundary, task_kill's long-standing discipline).
    bool in_teardown_ = false;
    RtosStats stats_;
};

}  // namespace slm::rtos
