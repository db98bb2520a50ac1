#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/process.hpp"
#include "sim/schedule_point.hpp"
#include "sim/time.hpp"

namespace slm::sim {

/// Thrown (from process context) to stop the whole simulation: the throwing
/// process unwinds with its destructors, the kernel stops dispatching, and
/// run()/run_until() returns with aborted() == true. The schedule explorer's
/// assert handler throws this so a contract violation on one explored path
/// ends that path instead of the host process.
struct SimulationAbort {
    std::string reason;
};

/// Kernel construction parameters.
struct KernelConfig {
    /// Smallest stack the kernel will hand a process: requests below this
    /// (including 0) are clamped, not rejected — models that never recurse can
    /// ask for tiny stacks without tripping an assert.
    static constexpr std::size_t kMinStackSize = 16 * 1024;

    /// Stack size per process. System models keep little on the stack, but the
    /// default is generous because debugging a blown coroutine stack is painful.
    std::size_t stack_size = 256 * 1024;

    /// Allocate process stacks via mmap with a PROT_NONE guard page below the
    /// usable range (debug builds): stack overflow faults immediately instead
    /// of corrupting the heap. Costs syscalls per fresh stack allocation.
    bool guard_pages = false;

    /// Context-switch backend. Auto picks the assembly fast path when compiled
    /// in, unless the SLM_FORCE_UCONTEXT environment variable is set.
    ContextBackend backend = ContextBackend::Auto;
};

/// Aggregate counters maintained by the kernel; cheap enough to be always on.
struct KernelStats {
    std::uint64_t processes_created = 0;
    std::uint64_t process_activations = 0;  ///< process dispatches (sim-level switches)
    std::uint64_t delta_cycles = 0;
    std::uint64_t time_advances = 0;
    std::uint64_t events_notified = 0;
    std::uint64_t stack_bytes_in_use = 0;   ///< live coroutine stack bytes (pool-acquired)
    std::uint64_t stacks_recycled = 0;      ///< spawns served from the stack pool's free list
    std::uint64_t guard_pages_disabled = 0; ///< 1 once guard-page setup failed and the
                                            ///< pool fell back to unguarded stacks
};

/// Observer hook for instrumentation (tracing, test assertions). All callbacks
/// run synchronously inside the kernel; they must not call kernel blocking APIs.
class KernelObserver {
public:
    virtual ~KernelObserver() = default;
    virtual void on_process_state(const Process& /*p*/, ProcState /*from*/,
                                  ProcState /*to*/) {}
    virtual void on_time_advance(SimTime /*now*/) {}
};

/// A named parallel branch for Kernel::par().
struct Branch {
    std::string name;
    std::function<void()> body;
};

/// Discrete-event SLDL simulation kernel with stackful-coroutine processes.
///
/// This is the substrate the paper assumes (SpecC's simulation kernel): it
/// provides processes, `wait`/`notify` events with delta-cycle semantics,
/// `waitfor` time modeling, and `par` fork/join composition. Execution is
/// strictly single-threaded and deterministic: runnable processes execute in
/// FIFO order of becoming ready, and simultaneous timeouts fire in the order
/// they were scheduled.
class Kernel {
public:
    explicit Kernel(KernelConfig cfg = {});
    ~Kernel();

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    // ---- construction / control (callable from outside process context) ----

    /// Create a process. Callable both from outside (root processes) and from
    /// inside a running process (the new process becomes its child).
    Process* spawn(std::string name, std::function<void()> body);

    /// Run until no runnable or timed activity remains. Processes still blocked
    /// on events at that point are deadlocked; see blocked_processes().
    void run();

    /// Run until simulated time would exceed `t_end`; all activity at instants
    /// <= t_end completes, then now() == t_end. Returns true if timed activity
    /// remains beyond t_end.
    bool run_until(SimTime t_end);

    [[nodiscard]] SimTime now() const { return now_; }
    [[nodiscard]] const KernelStats& stats() const { return stats_; }
    [[nodiscard]] Process* current() const { return current_; }
    /// The context backend this kernel resolved to at construction.
    [[nodiscard]] ContextBackend backend() const { return backend_; }

    /// Processes blocked on events/joins with no pending activity to wake them.
    [[nodiscard]] std::vector<const Process*> blocked_processes() const;

    /// Attach an additional observer; callbacks run in attachment order.
    void add_observer(KernelObserver* obs) {
        if (obs != nullptr) {
            observers_.push_back(obs);
        }
    }
    void remove_observer(KernelObserver* obs) {
        std::erase(observers_, obs);
    }

    /// Install a schedule controller consulted at every nondeterministic
    /// choice point (see sim/schedule_point.hpp). nullptr (the default)
    /// disables the hook entirely — the kernel then runs its deterministic
    /// FIFO order with zero overhead. The RTOS model reads this controller
    /// through the kernel for its own dispatch-tie choice points.
    void set_schedule_controller(ScheduleController* c) { controller_ = c; }
    [[nodiscard]] ScheduleController* schedule_controller() const { return controller_; }

    /// True once a SimulationAbort stopped the run; reason() carries its text.
    [[nodiscard]] bool aborted() const { return abort_reason_.has_value(); }
    [[nodiscard]] const std::optional<std::string>& abort_reason() const {
        return abort_reason_;
    }

    // ---- process-context API (must be called from inside a process) ----

    /// Block until `e` is notified (or already notified in this delta cycle).
    void wait(Event& e);

    /// Block until `e` is notified or `dt` of simulated time elapsed.
    /// Returns true if the event arrived, false on timeout.
    [[nodiscard]] bool wait_timeout(Event& e, SimTime dt);

    /// Block for `dt` of simulated time. waitfor(0) yields to the next delta.
    void waitfor(SimTime dt);

    /// Re-run after the other currently-runnable processes, same time and delta.
    void yield();

    /// Fork the branches as child processes and block until all have finished.
    void par(std::vector<Branch> branches);
    /// Convenience: unnamed branches (named "<parent>.parN").
    void par(std::initializer_list<std::function<void()>> bodies);

    /// Block until process `p` has finished (returns immediately if it has).
    void join(Process& p);

    // ---- callable from anywhere ----

    /// Handle for a one-shot timer posted with post_at(). Never 0.
    using TimerId = std::uint64_t;

    /// Schedule `fn` to run once, at simulated instant `t` (>= now()). The
    /// callback runs in scheduler context — this_process() is null inside it —
    /// before any process wakeups at the same instant, in posting order. It may
    /// spawn/notify/kill/post_at, but must not block or throw. OS-layer
    /// machinery (watchdogs, delayed interrupt delivery) is the intended user.
    TimerId post_at(SimTime t, std::function<void()> fn);

    /// Cancel a pending timer. Safe to call with an id that already fired or
    /// was already cancelled (no-op). A cancelled timer does not hold the
    /// simulation alive and its instant is never visited on its behalf.
    void cancel_timer(TimerId id);

    /// True while `id` is posted and has neither fired nor been cancelled.
    [[nodiscard]] bool timer_pending(TimerId id) const {
        return timer_fns_.find(id) != timer_fns_.end();
    }

    /// Notify an event: wake current waiters, sticky for the rest of the delta.
    void notify(Event& e);

    /// Terminate a process. If it is the caller, unwinds immediately; otherwise
    /// the victim unwinds (running its destructors) the next time the kernel
    /// touches it. A process that never started is simply marked Killed.
    void kill(Process& p);

private:
    friend class Event;
    friend class Process;  // Process::prepare_context targets the trampoline

    struct TimedEntry {
        SimTime t;
        std::uint64_t seq;  // tie-break: FIFO among equal timestamps
        Process* p;
        std::uint64_t token;
    };
    struct TimedLater {
        bool operator()(const TimedEntry& a, const TimedEntry& b) const {
            return a.t != b.t ? a.t > b.t : a.seq > b.seq;
        }
    };

    struct TimerEntry {
        SimTime t;
        std::uint64_t seq;  // tie-break: FIFO among equal timestamps
        TimerId id;
    };
    struct TimerLater {
        bool operator()(const TimerEntry& a, const TimerEntry& b) const {
            return a.t != b.t ? a.t > b.t : a.seq > b.seq;
        }
    };

    void make_ready(Process* p);
    void set_state(Process* p, ProcState s);
    void block_current_and_reschedule();
    void check_killed();
    void finish_current(ProcState final_state);  // called from trampoline; no return
    bool advance_time(SimTime limit);
    void end_delta();
    void drain_runnable();
    void consult_controller();
    void recycle_stack(Process* p);
    void sync_stack_stats();
    static void trampoline(void* raw);  // raw = Process*; never returns

    KernelConfig cfg_;
    ContextBackend backend_;
    StackPool stack_pool_;
    SimTime now_{};
    std::deque<Process*> runnable_;
    std::priority_queue<TimedEntry, std::vector<TimedEntry>, TimedLater> timed_;
    // One-shot timers: the queue orders instants, the map is the liveness
    // source of truth (cancel_timer erases the map entry; stale queue entries
    // are skimmed without advancing time).
    std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timer_q_;
    std::unordered_map<TimerId, std::function<void()>> timer_fns_;
    TimerId next_timer_id_ = 1;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<Event*> notified_events_;
    Context sched_ctx_;
    Process* current_ = nullptr;
    std::vector<KernelObserver*> observers_;
    ScheduleController* controller_ = nullptr;
    SchedulePoint point_;  ///< reused by consult_controller()
    std::optional<std::string> abort_reason_;
    bool running_ = false;
    std::uint64_t seq_counter_ = 0;
    int next_id_ = 1;
    KernelStats stats_{};
};

/// The kernel currently executing on this thread (set while Kernel::run() is
/// active). Convenience for model code that would otherwise thread a Kernel&
/// through every call.
[[nodiscard]] Kernel& this_kernel();

/// The process currently executing, or nullptr outside process context.
[[nodiscard]] Process* this_process();

}  // namespace slm::sim
