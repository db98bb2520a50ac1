#include "rtos/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "rtos/rtos.hpp"
#include "sim/assert.hpp"

namespace slm::rtos {

const char* to_string(SchedPolicy p) {
    switch (p) {
        case SchedPolicy::Fifo: return "FIFO";
        case SchedPolicy::Priority: return "Priority";
        case SchedPolicy::RoundRobin: return "RoundRobin";
        case SchedPolicy::Edf: return "EDF";
        case SchedPolicy::Rms: return "RMS";
    }
    return "?";
}

ReadyLink& ReadyQueue::link(Task& t) {
    return t.rq_link_;
}

namespace {

// ---- ready queues ----

/// FIFO order: arrival_seq is monotone in push order, so a plain deque is
/// already sorted. O(1) push/pop. Key changes (priority boosts) cannot affect
/// FIFO order, so requeue() keeps the task in place.
class FifoQueue final : public ReadyQueue {
public:
    void push(Task* t) override {
        link(*t).queued = true;
        // Monotone arrival_seq makes push_back sorted; policy migration at
        // start() may replay tasks out of arrival order.
        if (q_.empty() || q_.back()->arrival_seq() < t->arrival_seq()) {
            q_.push_back(t);
        } else {
            const auto it = std::upper_bound(
                q_.begin(), q_.end(), t->arrival_seq(),
                [](std::uint64_t seq, const Task* q) { return seq < q->arrival_seq(); });
            q_.insert(it, t);
        }
    }
    Task* peek() const override { return q_.empty() ? nullptr : q_.front(); }
    Task* pop() override {
        SLM_ASSERT(!q_.empty(), "pop() on an empty ready queue");
        Task* t = q_.front();
        q_.pop_front();
        link(*t).queued = false;
        return t;
    }
    void erase(Task* t) override {
        if (link(*t).queued) {
            std::erase(q_, t);
            link(*t).queued = false;
        }
    }
    void requeue(Task*) override {}
    bool empty() const override { return q_.empty(); }
    std::size_t size() const override { return q_.size(); }
    void ties(std::vector<Task*>& out) const override {
        // FIFO's dispatch order is total (arrival_seq is unique): no ties.
        if (!q_.empty()) {
            out.push_back(q_.front());
        }
    }

private:
    std::deque<Task*> q_;
};

/// Binary min-heap keyed by a policy-supplied key (effective priority for
/// Priority/RoundRobin, absolute deadline for EDF, period for RMS) with
/// arrival_seq as tie-break. arrival_seq is unique, so (key, arrival_seq) is
/// a total order: FIFO by arrival among equal keys. O(log n) push/pop/erase
/// via the intrusive heap position; nothing allocates once the vector has
/// grown to the task count.
template <typename KeyFn>
class HeapQueue final : public ReadyQueue {
public:
    explicit HeapQueue(KeyFn key) : key_(key) {}

    void push(Task* t) override {
        link(*t).queued = true;
        link(*t).heap_pos = heap_.size();
        heap_.push_back(t);
        sift_up(heap_.size() - 1);
    }
    Task* peek() const override { return heap_.empty() ? nullptr : heap_.front(); }
    Task* pop() override {
        SLM_ASSERT(!heap_.empty(), "pop() on an empty ready queue");
        Task* t = heap_.front();
        remove_at(0);
        return t;
    }
    void erase(Task* t) override {
        if (link(*t).queued) {
            remove_at(link(*t).heap_pos);
        }
    }
    void requeue(Task* t) override {
        if (link(*t).queued) {
            sift_up(link(*t).heap_pos);
            sift_down(link(*t).heap_pos);
        }
    }
    bool empty() const override { return heap_.empty(); }
    std::size_t size() const override { return heap_.size(); }
    void ties(std::vector<Task*>& out) const override {
        if (heap_.empty()) {
            return;
        }
        // All tasks sharing the minimum key are legal dispatches. The heap
        // array has no useful order among them, so sort by arrival_seq — the
        // heap's own tie-break puts the earliest arrival at the top, so out[0]
        // matches pop().
        const auto best = key_(*heap_.front());
        const std::size_t first = out.size();
        for (Task* t : heap_) {
            if (key_(*t) == best) {
                out.push_back(t);
            }
        }
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                  [](const Task* a, const Task* b) {
                      return a->arrival_seq() < b->arrival_seq();
                  });
    }

private:
    bool before(const Task* a, const Task* b) const {
        const auto ka = key_(*a);
        const auto kb = key_(*b);
        if (ka != kb) {
            return ka < kb;
        }
        return a->arrival_seq() < b->arrival_seq();
    }
    void place(Task* t, std::size_t pos) {
        heap_[pos] = t;
        link(*t).heap_pos = pos;
    }
    void sift_up(std::size_t pos) {
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 2;
            if (!before(heap_[pos], heap_[parent])) {
                break;
            }
            Task* tmp = heap_[pos];
            place(heap_[parent], pos);
            place(tmp, parent);
            pos = parent;
        }
    }
    void sift_down(std::size_t pos) {
        for (;;) {
            std::size_t best = pos;
            const std::size_t l = 2 * pos + 1;
            const std::size_t r = 2 * pos + 2;
            if (l < heap_.size() && before(heap_[l], heap_[best])) {
                best = l;
            }
            if (r < heap_.size() && before(heap_[r], heap_[best])) {
                best = r;
            }
            if (best == pos) {
                return;
            }
            Task* tmp = heap_[pos];
            place(heap_[best], pos);
            place(tmp, best);
            pos = best;
        }
    }
    void remove_at(std::size_t pos) {
        SLM_ASSERT(pos < heap_.size(), "heap position out of range");
        link(*heap_[pos]).queued = false;
        link(*heap_[pos]).heap_pos = ReadyLink::npos;
        Task* last = heap_.back();
        heap_.pop_back();
        if (pos < heap_.size()) {
            place(last, pos);
            sift_down(pos);
            sift_up(link(*last).heap_pos);
        }
    }

    KeyFn key_;
    std::vector<Task*> heap_;
};

template <typename KeyFn>
std::unique_ptr<ReadyQueue> make_heap_queue(KeyFn key) {
    return std::make_unique<HeapQueue<KeyFn>>(key);
}

// ---- policies ----

class FifoPolicy final : public SchedulerPolicy {
public:
    const char* name() const override { return "FIFO"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return std::make_unique<FifoQueue>();
    }
    bool preempts(const Task&, const Task&) const override { return false; }
};

class PriorityPolicy : public SchedulerPolicy {
public:
    const char* name() const override { return "Priority"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return make_heap_queue([](const Task& t) { return t.effective_priority(); });
    }
    bool preempts(const Task& cand, const Task& running) const override {
        return cand.effective_priority() < running.effective_priority();
    }
};

class RoundRobinPolicy final : public PriorityPolicy {
public:
    explicit RoundRobinPolicy(SimTime quantum) : quantum_(quantum) {
        SLM_ASSERT(!quantum.is_zero(), "round-robin needs a non-zero quantum");
    }
    const char* name() const override { return "RoundRobin"; }
    SimTime quantum() const override { return quantum_; }

private:
    SimTime quantum_;
};

class EdfPolicy final : public SchedulerPolicy {
public:
    const char* name() const override { return "EDF"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return make_heap_queue([](const Task& t) { return t.absolute_deadline(); });
    }
    bool preempts(const Task& cand, const Task& running) const override {
        return cand.absolute_deadline() < running.absolute_deadline();
    }
};

class RmsPolicy final : public SchedulerPolicy {
public:
    const char* name() const override { return "RMS"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return make_heap_queue([](const Task& t) { return key(t); });
    }
    bool preempts(const Task& cand, const Task& running) const override {
        return key(cand) < key(running);
    }

private:
    /// Shorter period = higher rate = higher priority. Aperiodic tasks
    /// (no period) run in the background.
    static SimTime key(const Task& t) {
        return t.params().type == TaskType::Periodic ? t.params().period : SimTime::max();
    }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_policy(SchedPolicy p, SimTime quantum) {
    switch (p) {
        case SchedPolicy::Fifo: return std::make_unique<FifoPolicy>();
        case SchedPolicy::Priority: return std::make_unique<PriorityPolicy>();
        case SchedPolicy::RoundRobin: return std::make_unique<RoundRobinPolicy>(quantum);
        case SchedPolicy::Edf: return std::make_unique<EdfPolicy>();
        case SchedPolicy::Rms: return std::make_unique<RmsPolicy>();
    }
    SLM_ASSERT(false, "unknown scheduling policy");
    return nullptr;
}

}  // namespace slm::rtos
