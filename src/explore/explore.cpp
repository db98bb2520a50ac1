#include "explore/explore.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "sim/assert.hpp"

namespace slm::explore {

// ---- Schedule ----

std::size_t Schedule::divergences() const {
    return static_cast<std::size_t>(
        std::count_if(choices.begin(), choices.end(),
                      [](std::uint32_t c) { return c != 0; }));
}

std::string Schedule::to_string() const {
    std::string s = std::to_string(choices.size());
    s += '|';
    bool first = true;
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (choices[i] == 0) {
            continue;
        }
        if (!first) {
            s += ',';
        }
        first = false;
        s += std::to_string(i);
        s += ':';
        s += std::to_string(choices[i]);
    }
    return s;
}

namespace {

bool parse_u64(std::string_view sv, std::uint64_t& out) {
    const char* end = sv.data() + sv.size();
    const auto [ptr, ec] = std::from_chars(sv.data(), end, out);
    return ec == std::errc{} && ptr == end && !sv.empty();
}

}  // namespace

std::optional<Schedule> Schedule::parse(const std::string& s, std::string* err) {
    const auto fail = [&](std::string why) -> std::optional<Schedule> {
        if (err != nullptr) {
            *err = std::move(why);
        }
        return std::nullopt;
    };
    const std::size_t bar = s.find('|');
    if (bar == std::string::npos) {
        return fail("missing '|' separator (expected \"len|i:c,...\")");
    }
    std::uint64_t len = 0;
    if (!parse_u64(std::string_view(s).substr(0, bar), len)) {
        return fail("length field \"" + s.substr(0, bar) + "\" is not a number");
    }
    Schedule out;
    out.choices.assign(len, 0);
    std::string_view rest = std::string_view(s).substr(bar + 1);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view pair = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        const std::size_t colon = pair.find(':');
        if (colon == std::string_view::npos) {
            return fail("entry \"" + std::string(pair) +
                        "\" has no ':' (expected \"index:choice\")");
        }
        std::uint64_t idx = 0;
        std::uint64_t val = 0;
        if (!parse_u64(pair.substr(0, colon), idx)) {
            return fail("index \"" + std::string(pair.substr(0, colon)) +
                        "\" is not a number");
        }
        if (!parse_u64(pair.substr(colon + 1), val)) {
            return fail("choice \"" + std::string(pair.substr(colon + 1)) +
                        "\" is not a number");
        }
        if (idx >= len) {
            return fail("index " + std::to_string(idx) +
                        " is past the declared length " + std::to_string(len));
        }
        if (val == 0) {
            return fail("entry " + std::to_string(idx) +
                        ":0 is redundant (0 is the default choice and is "
                        "never serialized)");
        }
        out.choices[idx] = static_cast<std::uint32_t>(val);
    }
    return out;
}

const char* to_string(Violation::Kind k) {
    switch (k) {
        case Violation::Kind::Deadlock: return "deadlock";
        case Violation::Kind::LostSignal: return "lost_signal";
        case Violation::Kind::DeadlineMiss: return "deadline_miss";
        case Violation::Kind::AssertionFailure: return "assertion_failure";
        case Violation::Kind::PropertyFailure: return "property_failure";
    }
    return "?";
}

// ---- canonical serialization ----

namespace {

void write_violation_json(std::ostream& os, const Violation& v) {
    os << "{\"kind\":\"" << to_string(v.kind) << "\",\"detail\":\""
       << trace::json_escape(v.detail) << "\",\"schedule\":\""
       << v.schedule.to_string() << "\",\"t_ns\":" << v.time.ns() << '}';
}

}  // namespace

void write_result_json(std::ostream& os, const ExploreResult& res) {
    os << "{\"schema\":\"slm-explore-result-v1\"";
    os << ",\"stats\":{\"paths\":" << res.stats.paths
       << ",\"choice_points\":" << res.stats.choice_points
       << ",\"pruned\":" << res.stats.pruned
       << ",\"max_depth\":" << res.stats.max_depth
       << ",\"truncated\":" << res.stats.truncated << '}';
    os << ",\"exhausted\":" << (res.exhausted ? "true" : "false");
    os << ",\"violations\":[";
    for (std::size_t i = 0; i < res.violations.size(); ++i) {
        if (i != 0) {
            os << ',';
        }
        write_violation_json(os, res.violations[i]);
    }
    os << ']';
    os << ",\"first_failure\":";
    if (!res.first_failure.has_value()) {
        os << "null";
    } else {
        const PathResult& pr = *res.first_failure;
        os << "{\"schedule\":\"" << pr.schedule.to_string()
           << "\",\"end_ns\":" << pr.end_time.ns()
           << ",\"more_timed\":" << (pr.more_timed ? "true" : "false")
           << ",\"truncated\":" << (pr.truncated ? "true" : "false")
           << ",\"diverged\":" << (pr.diverged ? "true" : "false")
           << ",\"violations\":[";
        for (std::size_t i = 0; i < pr.violations.size(); ++i) {
            if (i != 0) {
                os << ',';
            }
            write_violation_json(os, pr.violations[i]);
        }
        std::ostringstream csv;
        pr.trace.write_csv(csv);
        os << "],\"trace_csv\":\"" << trace::json_escape(csv.str()) << "\"}";
    }
    os << "}\n";
}

// ---- assert-handler scope ----

namespace {

/// While alive, SLM_ASSERT failures throw sim::SimulationAbort instead of
/// aborting the host process, so a contract violation on an explored path is
/// a recordable result. Restores the previous handler on destruction.
class AssertScope {
public:
    AssertScope() : prev_(sim::set_assert_handler(&throwing_handler)) {}
    ~AssertScope() { sim::set_assert_handler(prev_); }
    AssertScope(const AssertScope&) = delete;
    AssertScope& operator=(const AssertScope&) = delete;

private:
    static void throwing_handler(const sim::AssertInfo& ai) {
        throw sim::SimulationAbort{std::string(ai.file) + ":" +
                                   std::to_string(ai.line) + ": " + ai.cond +
                                   " (" + ai.msg + ")"};
    }

    sim::AssertHandler prev_;
};

/// splitmix64: tiny deterministic PRNG — good enough for uniform branch
/// picking and has no global state to leak between paths.
std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Walk the wait-for graph of the watched mutexes (task --waits-on--> mutex
/// --held-by--> task) and render the first cycle found, e.g.
/// "taskA -> m2 (held by taskB) -> m1 (held by taskA)". Empty if acyclic.
/// Walks start from the blocked tasks in the reverse of watch() order, each
/// mutex's waiters() taken in reverse queue order, so the text depends on the
/// build alone and never on where the heap put the tasks. (The reverse order
/// keeps the rendering two-task cycles have always had.)
std::string describe_mutex_cycle(const std::vector<rtos::OsMutex*>& mutexes) {
    std::vector<const rtos::Task*> starts;
    std::unordered_map<const rtos::Task*, const rtos::OsMutex*> waits_on;
    for (const rtos::OsMutex* m : mutexes) {
        for (const rtos::Task* t : m->waiters()) {
            if (waits_on.emplace(t, m).second) {
                starts.push_back(t);
            }
        }
    }
    for (auto start = starts.rbegin(); start != starts.rend(); ++start) {
        std::unordered_set<const rtos::Task*> seen;
        const rtos::Task* t = *start;
        while (t != nullptr) {
            const auto it = waits_on.find(t);
            if (it == waits_on.end()) {
                break;  // chain ends at a task that is not blocked on a mutex
            }
            if (!seen.insert(t).second) {
                // Revisited `t`: render the cycle starting from it.
                std::string desc = t->name();
                const rtos::Task* cur = t;
                do {
                    const rtos::OsMutex* m = waits_on.at(cur);
                    cur = m->owner();
                    desc += " -> " + m->name() + " (held by " + cur->name() + ")";
                } while (cur != t);
                return desc;
            }
            t = it->second->owner();
        }
    }
    return {};
}

}  // namespace

// ---- the controller ----

/// Drives every SchedulePoint of one run. Forced `plan` prefix, then either
/// the default choice (DFS/replay) or a bounded-uniform random choice.
class Explorer::Controller final : public sim::ScheduleController {
public:
    Controller(const std::vector<std::uint32_t>* plan, bool random, int bound,
               std::size_t max_choices, std::uint64_t rng_seed,
               trace::TraceRecorder* rec)
        : plan_(plan), random_(random), bound_(bound), max_choices_(max_choices),
          rng_(rng_seed), rec_(rec) {}

    std::size_t choose(const sim::SchedulePoint& pt) override {
        const auto count = static_cast<std::uint32_t>(pt.candidates.size());
        if (decisions_.size() >= max_choices_) {
            truncated_ = true;
            return 0;
        }
        std::uint32_t choice = 0;
        const std::size_t k = decisions_.size();
        if (plan_ != nullptr && k < plan_->size()) {
            choice = (*plan_)[k];
            if (choice >= count) {
                // A plan that does not fit the model (hand-edited or from a
                // different build) degrades to the default rather than dying.
                if (!diverged_) {
                    diverged_ = true;
                    diverged_at_ = k;
                    diverged_choice_ = choice;
                    diverged_count_ = count;
                }
                choice = 0;
            }
        } else if (random_ && divergences_ < bound_) {
            choice = static_cast<std::uint32_t>(splitmix64(rng_) % count);
        }
        if (choice != 0) {
            ++divergences_;
        }
        decisions_.push_back({choice, count});
        if (rec_ != nullptr) {
            rec_->marker(pt.now, std::string("choice[") + sim::to_string(pt.kind) +
                                     "] #" + std::to_string(k) + " -> " +
                                     pt.candidates[choice] + " (" +
                                     std::to_string(choice) + "/" +
                                     std::to_string(count) + ")");
        }
        return choice;
    }

    [[nodiscard]] const std::vector<Decision>& decisions() const { return decisions_; }
    [[nodiscard]] std::vector<Decision> take_decisions() { return std::move(decisions_); }
    [[nodiscard]] bool truncated() const { return truncated_; }
    [[nodiscard]] bool diverged() const { return diverged_; }
    /// Diagnostic for the first out-of-range plan entry, e.g.
    /// "point 7: choice 3 out of range (2 candidates)". Empty if !diverged().
    [[nodiscard]] std::string divergence_detail() const {
        if (!diverged_) {
            return {};
        }
        return "point " + std::to_string(diverged_at_) + ": choice " +
               std::to_string(diverged_choice_) + " out of range (" +
               std::to_string(diverged_count_) + " candidate" +
               (diverged_count_ == 1 ? "" : "s") + ")";
    }

private:
    const std::vector<std::uint32_t>* plan_;
    bool random_;
    int bound_;
    std::size_t max_choices_;
    std::uint64_t rng_;
    trace::TraceRecorder* rec_;
    std::vector<Decision> decisions_;
    int divergences_ = 0;
    bool truncated_ = false;
    bool diverged_ = false;
    std::size_t diverged_at_ = 0;
    std::uint32_t diverged_choice_ = 0;
    std::uint32_t diverged_count_ = 0;
};

// ---- one path ----

PathResult Explorer::run_path(const std::vector<std::uint32_t>* plan, bool random,
                              std::uint64_t rng_seed, bool markers,
                              std::vector<Decision>* decisions_out,
                              ExploreStats* stats,
                              std::string* divergence_detail_out) {
    Run run(cfg_.kernel);
    Controller ctl(plan, random, cfg_.preemption_bound, cfg_.max_choices_per_run,
                   rng_seed, markers ? &run.trace_ : nullptr);
    run.kernel_.set_schedule_controller(&ctl);
    AssertScope assert_scope;

    PathResult pr;
    std::optional<std::string> abort_reason;
    try {
        build_(run);
        if (cfg_.horizon == SimTime::max()) {
            run.kernel_.run();
        } else {
            pr.more_timed = run.kernel_.run_until(cfg_.horizon);
        }
    } catch (const sim::SimulationAbort& a) {
        // Thrown outside process context (build function or scheduler path);
        // in-process aborts are already caught by the kernel trampoline.
        abort_reason = a.reason;
    }
    if (run.kernel_.aborted()) {
        abort_reason = *run.kernel_.abort_reason();
    }

    pr.end_time = run.kernel_.now();
    pr.truncated = ctl.truncated();
    pr.diverged = ctl.diverged();
    if (divergence_detail_out != nullptr) {
        *divergence_detail_out = ctl.divergence_detail();
    }
    pr.schedule.choices.reserve(ctl.decisions().size());
    for (const Decision& d : ctl.decisions()) {
        pr.schedule.choices.push_back(d.chosen);
    }

    check_path(run, pr, abort_reason);

    if (stats != nullptr) {
        ++stats->paths;
        stats->choice_points += ctl.decisions().size();
        stats->max_depth = std::max<std::uint64_t>(stats->max_depth,
                                                   ctl.decisions().size());
        if (ctl.truncated()) {
            ++stats->truncated;
        }
    }
    if (decisions_out != nullptr) {
        *decisions_out = ctl.take_decisions();
    }
    pr.trace = std::move(run.trace_);
    return pr;
}

void Explorer::check_path(Run& run, PathResult& pr,
                          const std::optional<std::string>& abort_reason) const {
    const auto add = [&](Violation::Kind k, std::string detail) {
        pr.violations.push_back({k, std::move(detail), pr.schedule,
                                 run.kernel_.now()});
    };

    if (abort_reason.has_value()) {
        add(Violation::Kind::AssertionFailure, *abort_reason);
        return;  // an aborted run's remaining state is not meaningful
    }

    if (cfg_.check_deadlock && !pr.more_timed) {
        const auto blocked = run.kernel_.blocked_processes();
        if (!blocked.empty()) {
            std::string detail = describe_mutex_cycle(run.mutexes_);
            if (!detail.empty()) {
                detail = "cyclic mutex wait: " + detail;
            } else {
                detail = "blocked forever:";
                for (const sim::Process* p : blocked) {
                    detail += ' ' + p->name();
                }
            }
            add(Violation::Kind::Deadlock, detail);
        }
    }

    for (const rtos::OsCore* os : run.models_) {
        if (cfg_.check_lost_signals && os->stats().lost_notifies > 0) {
            add(Violation::Kind::LostSignal,
                os->config().cpu_name + ": " +
                    std::to_string(os->stats().lost_notifies) +
                    " notify(s) with no waiting task");
        }
        if (cfg_.check_deadline_misses) {
            for (const rtos::Task* t : os->tasks()) {
                if (t->stats().deadline_misses > 0) {
                    add(Violation::Kind::DeadlineMiss,
                        t->name() + " missed " +
                            std::to_string(t->stats().deadline_misses) +
                            " deadline(s)");
                }
            }
        }
    }

    for (const auto& [name, pred] : run.expects_) {
        if (!pred()) {
            add(Violation::Kind::PropertyFailure, name);
        }
    }
}

// ---- DFS successor generation ----

/// Compute the next decision trace in lexicographic DFS order: find the last
/// position whose choice can be incremented without exceeding the preemption
/// bound, keep the prefix before it, and drop the suffix (it regrows with
/// default choices on the next run). Returns false when the bounded space is
/// exhausted. Branches skipped because the bound forbids them are tallied
/// into `pruned`.
bool Explorer::next_plan(const std::vector<Decision>& d, int bound,
                         std::vector<std::uint32_t>& plan, std::uint64_t& pruned) {
    std::vector<int> nz_before(d.size() + 1, 0);
    for (std::size_t i = 0; i < d.size(); ++i) {
        nz_before[i + 1] = nz_before[i] + (d[i].chosen != 0 ? 1 : 0);
    }
    for (std::size_t i = d.size(); i-- > 0;) {
        if (d[i].chosen + 1 >= d[i].count) {
            continue;  // no alternative left at this point
        }
        // Incrementing makes d[i] non-default; it only adds a divergence if
        // the current choice was the default.
        const int divergences = nz_before[i] + 1;
        if (divergences > bound) {
            pruned += d[i].count - 1 - d[i].chosen;
            continue;
        }
        plan.clear();
        plan.reserve(i + 1);
        for (std::size_t j = 0; j < i; ++j) {
            plan.push_back(d[j].chosen);
        }
        plan.push_back(d[i].chosen + 1);
        return true;
    }
    return false;
}

// ---- drivers ----

ExploreResult Explorer::explore() {
    ExploreResult res;
    std::vector<std::uint32_t> plan;  // empty = all-default first path
    std::vector<Decision> decisions;
    for (;;) {
        if (res.stats.paths >= cfg_.max_paths) {
            break;  // budget exhausted, space not necessarily covered
        }
        PathResult pr = run_path(&plan, /*random=*/false, 0, /*markers=*/false,
                                 &decisions, &res.stats);
        if (!pr.violations.empty() && !res.first_failure.has_value()) {
            res.first_failure = replay(pr.schedule);
        }
        for (Violation& v : pr.violations) {
            if (res.violations.size() < cfg_.max_violations) {
                res.violations.push_back(std::move(v));
            }
        }
        if (res.violations.size() >= cfg_.max_violations) {
            break;
        }
        if (!next_plan(decisions, cfg_.preemption_bound, plan,
                       res.stats.pruned)) {
            res.exhausted = true;
            break;
        }
    }
    return res;
}

ExploreResult Explorer::random_walks(std::uint64_t n) {
    ExploreResult res;
    std::unordered_set<std::string> reported;  // dedup repeats across walks
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t stream = cfg_.seed + i;
        const std::uint64_t rng_seed = splitmix64(stream);
        PathResult pr = run_path(nullptr, /*random=*/true, rng_seed,
                                 /*markers=*/false, nullptr, &res.stats);
        if (!pr.violations.empty() && !res.first_failure.has_value()) {
            res.first_failure = replay(pr.schedule);
        }
        for (Violation& v : pr.violations) {
            if (res.violations.size() < cfg_.max_violations &&
                reported.insert(std::string(to_string(v.kind)) + '@' +
                                v.schedule.to_string()).second) {
                res.violations.push_back(std::move(v));
            }
        }
        if (res.violations.size() >= cfg_.max_violations) {
            break;
        }
    }
    return res;
}

PathResult Explorer::replay(const Schedule& s) {
    return run_path(&s.choices, /*random=*/false, 0, /*markers=*/true, nullptr, nullptr);
}

Explorer::Expansion Explorer::expand(const std::vector<std::uint32_t>& plan) {
    Expansion e;
    e.path = run_path(&plan, /*random=*/false, 0, /*markers=*/false, &e.decisions,
                      nullptr);
    return e;
}

Explorer::ReplayOutcome Explorer::replay_trace(const std::string& trace) {
    ReplayOutcome out;
    std::string parse_err;
    const std::optional<Schedule> s = Schedule::parse(trace, &parse_err);
    if (!s.has_value()) {
        out.error = "malformed decision trace: " + parse_err;
        return out;  // nothing was run
    }
    std::string divergence;
    out.result = run_path(&s->choices, /*random=*/false, 0, /*markers=*/true, nullptr,
                          nullptr, &divergence);
    if (!divergence.empty()) {
        out.error = "decision trace does not fit this model at " + divergence +
                    "; replayed path diverged to the default choice there";
    }
    return out;
}

}  // namespace slm::explore
