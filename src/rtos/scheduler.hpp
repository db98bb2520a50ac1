#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace slm::rtos {

class Task;

/// Dynamic scheduling algorithms selectable at RtosModel::start() (the paper's
/// `start(int sched_alg)`).
enum class SchedPolicy {
    Fifo,        ///< non-preemptive first-come-first-served
    Priority,    ///< fixed-priority, preemptive (smaller number = higher priority)
    RoundRobin,  ///< fixed-priority preemptive + quantum rotation among equals
    Edf,         ///< earliest absolute deadline first, preemptive
    Rms,         ///< rate-monotonic: shortest period first, preemptive
};

[[nodiscard]] const char* to_string(SchedPolicy p);

/// Intrusive ready-queue bookkeeping embedded in each Task. Owned by the
/// scheduler's ReadyQueue; tasks never touch it themselves.
struct ReadyLink {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t heap_pos = npos;  ///< heap slot (heap queues)
    bool queued = false;
};

/// Policy-ordered ready queue. Each SchedulerPolicy supplies a queue whose
/// internal order matches its dispatch rule, so picking the next task is
/// O(1)/O(log n) instead of the O(n) scan a flat ready list needs — the
/// dominant cost of an RTOS-model dispatch once context switches are cheap.
class ReadyQueue {
public:
    virtual ~ReadyQueue() = default;

    /// Insert a task (its arrival_seq must already be stamped).
    virtual void push(Task* t) = 0;
    /// Best task by the policy's dispatch rule; nullptr when empty.
    [[nodiscard]] virtual Task* peek() const = 0;
    /// Remove and return the best task (the same one peek() reports).
    virtual Task* pop() = 0;
    /// Remove an arbitrary queued task (kill, policy migration).
    virtual void erase(Task* t) = 0;
    /// Re-position a queued task after its ordering key changed (priority
    /// boost); preserves the task's arrival_seq tie-break rank.
    virtual void requeue(Task* t) = 0;
    [[nodiscard]] virtual bool empty() const = 0;
    [[nodiscard]] virtual std::size_t size() const = 0;
    /// Append every task tied for "best" under the policy's dispatch key —
    /// the set a real RTOS could legally dispatch next. out[0] is always the
    /// task pop() would return (the deterministic FIFO tie-break); the rest
    /// follow in arrival order. Policies with a total dispatch order (FIFO)
    /// report exactly one candidate. Used by schedule-space exploration; the
    /// normal dispatch path never calls it.
    virtual void ties(std::vector<Task*>& out) const = 0;

protected:
    /// Accessor for the intrusive link (ReadyQueue is a friend of Task).
    [[nodiscard]] static ReadyLink& link(Task& t);
};

/// Strategy interface consulted by the RTOS model whenever task states change.
/// Implementations are stateless; the per-instance ready-queue state lives in
/// the queue returned by make_queue(), so policies can be swapped per
/// `start()` call (the model migrates queued tasks across).
class SchedulerPolicy {
public:
    virtual ~SchedulerPolicy() = default;

    [[nodiscard]] virtual const char* name() const = 0;

    /// Create the ready queue implementing this policy's dispatch order.
    [[nodiscard]] virtual std::unique_ptr<ReadyQueue> make_queue() const = 0;

    /// Should `cand` preempt the currently running task? Non-preemptive
    /// policies always answer false.
    [[nodiscard]] virtual bool preempts(const Task& cand, const Task& running) const = 0;

    /// Time-slice length, or zero for no quantum-based rotation.
    [[nodiscard]] virtual SimTime quantum() const { return SimTime::zero(); }
};

/// Factory for the built-in policies. `quantum` only matters for RoundRobin.
[[nodiscard]] std::unique_ptr<SchedulerPolicy> make_policy(SchedPolicy p,
                                                           SimTime quantum = milliseconds(1));

}  // namespace slm::rtos
