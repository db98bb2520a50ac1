// Differential test of the ready queues behind the Priority and RoundRobin
// policies: seeded random push/pop/erase/requeue sequences, with priority
// inheritance boosts, base-priority changes, equal priorities and start()
// policy migration, run against a reference model — a plain list ordered by
// (effective priority, arrival_seq). Every pop() and every ties() result
// must match the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "rtos/core.hpp"
#include "rtos/scheduler.hpp"
#include "sim/kernel.hpp"

namespace slm::rtos {

/// Sets the fields a ready queue orders by, as OsCore does on enqueue
/// (arrival_seq), boost_priority/restore_priority (inherited priority) and
/// task_set_priority (base priority).
struct ReadyQueueProbe {
    static void stamp(Task& t, std::uint64_t seq) { t.arrival_seq_ = seq; }
    static void inherit(Task& t, int level) { t.inherited_priority_ = level; }
    static void set_base(Task& t, int priority) { t.params_.priority = priority; }
};

}  // namespace slm::rtos

namespace {

using namespace slm;
using namespace slm::rtos;

bool ref_before(const Task* a, const Task* b) {
    if (a->effective_priority() != b->effective_priority()) {
        return a->effective_priority() < b->effective_priority();
    }
    return a->arrival_seq() < b->arrival_seq();
}

/// The reference: an unordered list, sorted on demand.
struct RefQueue {
    std::vector<Task*> tasks;

    [[nodiscard]] bool has(const Task* t) const {
        return std::find(tasks.begin(), tasks.end(), t) != tasks.end();
    }
    [[nodiscard]] Task* best() const {
        return tasks.empty() ? nullptr : *std::min_element(tasks.begin(), tasks.end(), ref_before);
    }
    Task* pop() {
        Task* t = best();
        std::erase(tasks, t);
        return t;
    }
    [[nodiscard]] std::vector<Task*> ties() const {
        std::vector<Task*> out;
        if (const Task* b = best()) {
            for (Task* t : tasks) {
                if (t->effective_priority() == b->effective_priority()) {
                    out.push_back(t);
                }
            }
            std::sort(out.begin(), out.end(), ref_before);
        }
        return out;
    }
};

std::unique_ptr<ReadyQueue> migrate(std::unique_ptr<ReadyQueue> from,
                                    const SchedulerPolicy& to) {
    // OsCore::start(policy): pop everything from the old queue into the new.
    auto q = to.make_queue();
    while (!from->empty()) {
        q->push(from->pop());
    }
    return q;
}

void run_sequence(SchedPolicy policy, std::uint32_t seed) {
    SCOPED_TRACE(std::string(to_string(policy)) + " seed " + std::to_string(seed));
    sim::Kernel k;
    OsCore os{k};
    std::vector<Task*> pool;
    std::mt19937 rng{seed};
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>{lo, hi}(rng);
    };
    for (int i = 0; i < 10; ++i) {
        TaskParams params;
        params.name = "t" + std::to_string(i);
        params.priority = pick(0, 3);  // few distinct levels: many equal priorities
        pool.push_back(os.task_create(std::move(params)));
    }
    const auto policy_obj = make_policy(policy);
    auto q = policy_obj->make_queue();
    RefQueue ref;
    std::uint64_t seq = 0;
    std::vector<Task*> got;

    for (int step = 0; step < 3000; ++step) {
        Task* t = pool[static_cast<std::size_t>(pick(0, 9))];
        switch (pick(0, 8)) {
            case 0:
            case 1:
            case 2:  // push (enqueue_ready stamps a fresh arrival)
                if (!ref.has(t)) {
                    ReadyQueueProbe::stamp(*t, ++seq);
                    q->push(t);
                    ref.tasks.push_back(t);
                }
                break;
            case 3:
            case 4:  // pop
                if (!ref.tasks.empty()) {
                    Task* want = ref.pop();
                    ASSERT_EQ(q->pop(), want) << "step " << step;
                }
                break;
            case 5:  // erase (a no-op for a task not queued)
                q->erase(t);
                std::erase(ref.tasks, t);
                break;
            case 6:  // priority-inheritance boost, then requeue
                if (t->effective_priority() > 0) {
                    ReadyQueueProbe::inherit(*t, pick(0, t->effective_priority() - 1));
                    q->requeue(t);
                }
                break;
            case 7:  // boost restored (key may rise), or base priority changed
                if (pick(0, 1) == 0) {
                    ReadyQueueProbe::inherit(*t, std::numeric_limits<int>::max());
                } else {
                    ReadyQueueProbe::set_base(*t, pick(0, 3));
                }
                q->requeue(t);
                break;
            case 8: {  // start(policy): through another policy's queue and back
                static constexpr SchedPolicy kVia[] = {SchedPolicy::Fifo, SchedPolicy::Edf,
                                                       SchedPolicy::Rms,
                                                       SchedPolicy::Priority};
                const auto via = make_policy(kVia[pick(0, 3)]);
                q = migrate(migrate(std::move(q), *via), *policy_obj);
                break;
            }
        }
        ASSERT_EQ(q->size(), ref.tasks.size()) << "step " << step;
        ASSERT_EQ(q->empty(), ref.tasks.empty()) << "step " << step;
        ASSERT_EQ(q->peek(), ref.best()) << "step " << step;
        got.clear();
        q->ties(got);
        ASSERT_EQ(got, ref.ties()) << "step " << step;
    }
    while (!ref.tasks.empty()) {
        Task* want = ref.pop();
        ASSERT_EQ(q->pop(), want);
    }
    EXPECT_TRUE(q->empty());
}

TEST(ReadyQueue, PriorityHeapMatchesReferenceModel) {
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        run_sequence(SchedPolicy::Priority, seed);
    }
}

TEST(ReadyQueue, RoundRobinHeapMatchesReferenceModel) {
    for (std::uint32_t seed = 101; seed <= 120; ++seed) {
        run_sequence(SchedPolicy::RoundRobin, seed);
    }
}

}  // namespace
