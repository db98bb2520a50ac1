#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/assert.hpp"
#include "trace/trace.hpp"

namespace slm::obs {

namespace {

constexpr const char* kSpanKindNames[kSpanKindCount] = {
    "task_run", "task_ready", "task_preempt", "task_block", "task_idle", "job",
    "recv",     "send",       "bus_xfer",     "isr",        "channel_op", "latency",
};

constexpr const char* kPathCategoryNames[kPathCategoryCount] = {
    "compute", "bus", "ready", "preempt", "block", "deliver", "dst_busy", "env", "other",
};

}  // namespace

const char* to_string(SpanKind k) {
    const auto i = static_cast<std::uint32_t>(k);
    SLM_ASSERT(i < kSpanKindCount, "bad SpanKind");
    return kSpanKindNames[i];
}

const char* to_string(PathCategory c) {
    const auto i = static_cast<std::uint32_t>(c);
    SLM_ASSERT(i < kPathCategoryCount, "bad PathCategory");
    return kPathCategoryNames[i];
}

// ---- SpanRecorder ----

std::uint64_t SpanRecorder::begin_span(SimTime t, SpanKind kind, std::string_view pe,
                                       std::string_view name, std::string_view aux,
                                       TokenRef token, std::uint64_t parent) {
    // No global begin-order assertion: after-the-fact emitters (BusLink's
    // post hook) legitimately open spans that began earlier than already-
    // recorded ones. end_span checks end >= begin per span instead.
    const std::size_t idx = records_.append(SpanRec{
        t.ns(), kOpenEnd, token.id, token.valid() ? token.born_ns : 0, parent, 0,
        static_cast<std::uint32_t>(kind), strings_.intern(pe), strings_.intern(name),
        strings_.intern(aux)});
    ++open_;
    return static_cast<std::uint64_t>(idx) + 1;
}

SpanRecorder::SpanRec& SpanRecorder::rec_of(std::uint64_t id) {
    SLM_ASSERT(id >= 1 && id <= records_.size(), "span id out of range");
    return records_.at(static_cast<std::size_t>(id - 1));
}

void SpanRecorder::end_span(std::uint64_t id, SimTime t) {
    SpanRec& r = rec_of(id);
    SLM_ASSERT(r.t_end_ns == kOpenEnd, "span already ended");
    SLM_ASSERT(t.ns() >= r.t_begin_ns, "span must end at or after its begin");
    r.t_end_ns = t.ns();
    SLM_ASSERT(open_ > 0, "open-span accounting underflow");
    --open_;
}

void SpanRecorder::set_token(std::uint64_t id, TokenRef token) {
    SpanRec& r = rec_of(id);
    r.token_id = token.id;
    r.token_born_ns = token.valid() ? token.born_ns : 0;
}

void SpanRecorder::set_value(std::uint64_t id, std::uint64_t value) {
    rec_of(id).value = value;
}

void SpanRecorder::reclassify(std::uint64_t id, SpanKind kind) {
    rec_of(id).kind = static_cast<std::uint32_t>(kind);
}

void SpanRecorder::clear() {
    records_.clear();
    strings_.clear();
    open_ = 0;
}

// ---- SpanTracer ----

SpanTracer::SpanTracer(rtos::OsCore& core, SpanSink& sink) : core_(&core), sink_(sink) {
    core.add_observer(this);
}

SpanTracer::~SpanTracer() {
    if (core_ != nullptr) {
        core_->remove_observer(this);
    }
}

void SpanTracer::on_task_state(const rtos::Task& t, rtos::TaskState /*from*/,
                               rtos::TaskState to, SimTime now) {
    if (const auto it = open_.find(&t); it != open_.end()) {
        sink_.end_span(it->second, now);
        open_.erase(it);
    }
    SpanKind kind;
    switch (to) {
        case rtos::TaskState::Running:
            kind = SpanKind::TaskRun;
            break;
        case rtos::TaskState::Ready:
            kind = SpanKind::TaskReady;
            break;
        case rtos::TaskState::WaitingEvent:
            kind = SpanKind::TaskBlock;
            break;
        case rtos::TaskState::WaitingPeriod:
        case rtos::TaskState::Sleeping:
        case rtos::TaskState::Suspended:
        case rtos::TaskState::ParWait:
            kind = SpanKind::TaskIdle;
            break;
        case rtos::TaskState::New:
        case rtos::TaskState::Terminated:
        default:
            return;  // no open span for dormant states
    }
    SLM_ASSERT(core_ != nullptr, "SpanTracer used after core teardown");
    open_[&t] = sink_.begin_span(now, kind, core_->config().cpu_name, t.name());
}

void SpanTracer::on_preempt(const rtos::Task& preempted, const rtos::Task& /*by*/,
                            SimTime /*now*/) {
    // The core moves the victim to Ready *before* reporting the preemption
    // (rtos/core.cpp maybe_yield), so the span just opened as TaskReady is
    // retro-labeled: involuntary wait is its own critical-path category.
    if (const auto it = open_.find(&preempted); it != open_.end()) {
        sink_.reclassify(it->second, SpanKind::TaskPreempt);
    }
}

void SpanTracer::on_isr(const std::string& irq_name, SimTime now) {
    SLM_ASSERT(core_ != nullptr, "SpanTracer used after core teardown");
    sink_.instant(now, SpanKind::Isr, core_->config().cpu_name, irq_name);
}

void SpanTracer::on_channel_op(const std::string& channel, const char* op, SimTime now) {
    SLM_ASSERT(core_ != nullptr, "SpanTracer used after core teardown");
    sink_.instant(now, SpanKind::ChannelOp, core_->config().cpu_name, channel, op);
}

void SpanTracer::on_core_teardown() {
    if (core_ == nullptr) {
        return;
    }
    const SimTime now = core_->kernel().now();
    for (const auto& [task, id] : open_) {
        sink_.end_span(id, now);
    }
    open_.clear();
    core_ = nullptr;
}

// ---- critical-path extraction ----

namespace {

/// Key for "this PE, this task/actor" over interned ids. Safe within one
/// recorder: intern() dedupes, so equal strings share one id.
std::uint64_t actor_key(std::uint32_t pe, std::uint32_t name) {
    return (static_cast<std::uint64_t>(pe) << 32) | name;
}

bool is_task_state(SpanKind k) { return k <= SpanKind::TaskIdle; }  // the first five

struct StateSpan {
    std::uint64_t begin;
    std::uint64_t end;  ///< kOpenEnd (the largest value) while open: "until forever"
    SpanKind kind;
};

struct Hop {
    std::uint64_t end;
    std::size_t idx;  ///< record index (span fields + final tie-break)
    bool is_send;
};

/// Pre-indexed view of one recorder: every token's hops and every actor's
/// state timeline or, given `only` (a Latency record), just that record's
/// token hops and the timelines of the actors those hops and its sink name —
/// everything extract_one() looks up for that one record.
struct SpanIndex {
    const SpanRecorder& rec;
    // Task-state timeline per (pe, task): in begin order, non-overlapping,
    // open only at the end (asserted while building), so a window finds its
    // first overlapping span by binary search.
    std::map<std::uint64_t, std::vector<StateSpan>> states;
    // Send/Recv spans per token (id, born), in end order.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Hop>> hops;

    explicit SpanIndex(const SpanRecorder& r, const SpanRecorder::SpanRec* only = nullptr)
        : rec(r) {
        if (only != nullptr) {
            states[actor_key(only->pe, only->name)];
        }
        for (std::size_t i = 0; i < r.size(); ++i) {
            const SpanRecorder::SpanRec& s = r.rec(i);
            const auto kind = static_cast<SpanKind>(s.kind);
            if ((kind != SpanKind::Send && kind != SpanKind::Recv) ||
                s.token_id == kNoTokenId || s.t_end_ns == SpanRecorder::kOpenEnd ||
                (only != nullptr && (s.token_id != only->token_id ||
                                     s.token_born_ns != only->token_born_ns))) {
                continue;
            }
            hops[{s.token_id, s.token_born_ns}].push_back(
                Hop{s.t_end_ns, i, kind == SpanKind::Send});
            if (only != nullptr) {
                states[actor_key(s.pe, s.aux)];  // the sender or receiver task
            }
        }
        for (std::size_t i = 0; i < r.size(); ++i) {
            const SpanRecorder::SpanRec& s = r.rec(i);
            const auto kind = static_cast<SpanKind>(s.kind);
            if (!is_task_state(kind)) {
                continue;
            }
            const std::uint64_t key = actor_key(s.pe, s.name);
            const auto it =
                only != nullptr ? states.find(key) : states.try_emplace(key).first;
            if (it == states.end()) {
                continue;
            }
            std::vector<StateSpan>& line = it->second;
            // An open span reads as ending at kOpenEnd, so this also rejects
            // any state that follows one.
            SLM_ASSERT(line.empty() || line.back().end <= s.t_begin_ns,
                       "task-state spans must be in begin order, non-overlapping, and "
                       "open only at the end of the timeline");
            line.push_back(StateSpan{s.t_begin_ns, s.t_end_ns, kind});
        }
        for (auto& [token, v] : hops) {
            // Causal order: by end time; at a tie, the Send of a matched pair
            // completes before its Recv (a queue hand-off can wake the
            // receiver in the same nanosecond), so Sends sort first.
            std::sort(v.begin(), v.end(), [](const Hop& a, const Hop& b) {
                if (a.end != b.end) {
                    return a.end < b.end;
                }
                if (a.is_send != b.is_send) {
                    return a.is_send;
                }
                return a.idx < b.idx;
            });
        }
    }
};

void add_segment(CriticalPath& out, std::uint64_t b, std::uint64_t e, PathCategory cat,
                 const std::string& who) {
    if (e <= b) {
        return;
    }
    out.by_category[static_cast<std::size_t>(cat)] += e - b;
    if (!out.segments.empty()) {
        PathSegment& last = out.segments.back();
        if (last.end_ns == b && last.category == cat && last.who == who) {
            last.end_ns = e;  // coalesce
            return;
        }
    }
    out.segments.push_back(PathSegment{b, e, cat, who});
}

/// How a window walk labels time: per task state (indexed by SpanKind
/// TaskRun..TaskIdle), in gaps of the timeline, and when the actor has no
/// timeline at all.
struct WindowCategories {
    std::array<PathCategory, 5> state;
    PathCategory gap;
    PathCategory no_timeline;
};

/// The token is held by a task: its own states. Idle time and timeline gaps
/// are Other; an actor with no state timeline at all is the environment (a
/// stimulus process posts straight from a kernel process, no RTOS task).
constexpr WindowCategories kHeld{{PathCategory::Compute, PathCategory::Ready,
                                  PathCategory::Preempt, PathCategory::Block,
                                  PathCategory::Other},
                                 PathCategory::Other,
                                 PathCategory::Env};

/// The token is in flight toward a receiver: the receiver running other work
/// is DstBusy, runnable-but-unscheduled is Ready/Preempt, anything else
/// (blocked waiting for exactly this delivery, idle, no timeline) is Deliver.
constexpr WindowCategories kInFlight{{PathCategory::DstBusy, PathCategory::Ready,
                                      PathCategory::Preempt, PathCategory::Deliver,
                                      PathCategory::Deliver},
                                     PathCategory::Deliver,
                                     PathCategory::Deliver};

/// Partition [w0, w1) along the state timeline of task (pe, task), labelling
/// segments `who` with `cats`. Running time inside [bus_b, bus_e) — the
/// holder's enclosing Send span — is Bus (occupancy + arbitration keep the
/// sender Running: arch::Bus::occupy waits on the raw kernel, invisible to
/// the OS). The walk starts at the first span ending after w0, found by
/// binary search, so a window costs O(log S + spans it overlaps).
void partition_window(const SpanIndex& ix, std::uint64_t w0, std::uint64_t w1,
                      std::uint32_t pe, std::uint32_t task, const std::string& who,
                      const WindowCategories& cats, CriticalPath& out,
                      std::uint64_t bus_b = 0, std::uint64_t bus_e = 0) {
    if (w1 <= w0) {
        return;
    }
    const auto it = ix.states.find(actor_key(pe, task));
    if (it == ix.states.end() || it->second.empty()) {
        add_segment(out, w0, w1, cats.no_timeline, who);
        return;
    }
    const std::vector<StateSpan>& line = it->second;
    std::uint64_t cur = w0;
    for (auto s = std::partition_point(line.begin(), line.end(),
                                       [&](const StateSpan& x) { return x.end <= cur; });
         s != line.end() && s->begin < w1 && cur < w1; ++s) {
        const std::uint64_t b = std::max(cur, s->begin);
        const std::uint64_t e = std::min(w1, s->end);
        add_segment(out, cur, b, cats.gap, who);
        const PathCategory cat = cats.state[static_cast<std::size_t>(s->kind)];
        // Split the Running overlap at the send-window boundary.
        const std::uint64_t bb = std::max(b, bus_b);
        const std::uint64_t be = std::min(e, bus_e);
        if (s->kind == SpanKind::TaskRun && be > bb) {
            add_segment(out, b, bb, cat, who);
            add_segment(out, bb, be, PathCategory::Bus, who);
            add_segment(out, be, e, cat, who);
        } else {
            add_segment(out, b, e, cat, who);
        }
        cur = e;
    }
    add_segment(out, cur, w1, cats.gap, who);
}

CriticalPath extract_one(const SpanIndex& ix, const SpanRecorder::SpanRec& lat) {
    CriticalPath cp;
    cp.token_id = lat.token_id;
    cp.born_ns = lat.token_born_ns;
    cp.recorded_ns = lat.t_begin_ns;
    cp.total_ns = lat.value;
    cp.anchor_ns = cp.recorded_ns >= cp.total_ns ? cp.recorded_ns - cp.total_ns : 0;
    cp.sink = ix.rec.str(lat.name);
    cp.valid = true;

    // Custody chain: cut the window at the end of every token-matching Send
    // and Recv. Up to a Send's end the token is held by the sender; from a
    // Send's end to the matching Recv's end it is in flight on the channel;
    // from a Recv's end the receiver holds it — and the stretch after the
    // last hop belongs to the task that reported the sample. Hops are
    // clamped into [anchor, recorded); each partition call emits disjoint
    // contiguous segments, so the sum over categories equals the observed
    // sample exactly, in integer nanoseconds, by construction.
    std::uint64_t cur = cp.anchor_ns;
    if (lat.token_id != kNoTokenId) {
        const auto it = ix.hops.find({lat.token_id, lat.token_born_ns});
        if (it != ix.hops.end()) {
            for (const Hop& h : it->second) {
                if (h.end <= cur) {
                    continue;  // before the window (or zero-width)
                }
                if (h.end >= cp.recorded_ns) {
                    break;  // at/after the sample: sink custody from here
                }
                const SpanRecorder::SpanRec& s = ix.rec.rec(h.idx);
                if (static_cast<SpanKind>(s.kind) == SpanKind::Send) {
                    // [cur, send.end): the sender holds the token. Running
                    // time inside the send span itself is bus occupancy.
                    partition_window(ix, cur, h.end, s.pe, s.aux, ix.rec.str(s.aux),
                                     kHeld, cp, s.t_begin_ns, s.t_end_ns);
                } else {
                    // [cur, recv.end): in flight toward the receiving task.
                    partition_window(ix, cur, h.end, s.pe, s.aux, ix.rec.str(s.name),
                                     kInFlight, cp);
                }
                cur = h.end;
                ++cp.hops;
            }
        }
    }
    // Tail window: held by the task that reported the sample.
    partition_window(ix, cur, cp.recorded_ns, lat.pe, lat.name, ix.rec.str(lat.name),
                     kHeld, cp);
    return cp;
}

}  // namespace

std::uint64_t CriticalPath::category_sum() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : by_category) {
        sum += v;
    }
    return sum;
}

PathCategory CriticalPath::bottleneck() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < by_category.size(); ++i) {
        if (by_category[i] > by_category[best]) {
            best = i;
        }
    }
    return static_cast<PathCategory>(best);
}

std::vector<CriticalPath> extract_critical_paths(const SpanRecorder& rec) {
    std::vector<CriticalPath> out;
    const SpanIndex ix(rec);
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const SpanRecorder::SpanRec& s = rec.rec(i);
        if (static_cast<SpanKind>(s.kind) == SpanKind::Latency) {
            out.push_back(extract_one(ix, s));
        }
    }
    return out;
}

CriticalPath worst_critical_path(const SpanRecorder& rec) {
    // Pick the sample first — largest value, the first in recording order on
    // a tie — then index and walk only its path.
    const SpanRecorder::SpanRec* worst = nullptr;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const SpanRecorder::SpanRec& s = rec.rec(i);
        if (static_cast<SpanKind>(s.kind) == SpanKind::Latency &&
            (worst == nullptr || s.value > worst->value)) {
            worst = &s;
        }
    }
    if (worst == nullptr) {
        return {};
    }
    return extract_one(SpanIndex(rec, worst), *worst);
}

// ---- exporters ----

void write_span_json(std::ostream& os, const SpanRecorder& rec) {
    os << R"({"schema":"slm-span-dump-v1","spans":)" << rec.size() << "}\n";
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const SpanRecorder::SpanRec& s = rec.rec(i);
        os << R"({"id":)" << (i + 1) << R"(,"kind":")"
           << to_string(static_cast<SpanKind>(s.kind)) << R"(","begin_ns":)"
           << s.t_begin_ns << R"(,"end_ns":)";
        if (s.t_end_ns == SpanRecorder::kOpenEnd) {
            os << "null";
        } else {
            os << s.t_end_ns;
        }
        os << R"(,"pe":")" << trace::json_escape(rec.str(s.pe)) << R"(","name":")"
           << trace::json_escape(rec.str(s.name)) << '"';
        if (s.aux != 0) {
            os << R"(,"aux":")" << trace::json_escape(rec.str(s.aux)) << '"';
        }
        os << R"(,"parent":)" << s.parent;
        if (s.token_id != kNoTokenId) {
            os << R"(,"token_id":)" << s.token_id << R"(,"token_born_ns":)"
               << s.token_born_ns;
        }
        os << R"(,"value":)" << s.value << "}\n";
    }
}

namespace {

std::string us_str(std::uint64_t t_ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t_ns) / 1000.0);
    return std::string(buf);
}

}  // namespace

void write_perfetto_json(std::ostream& os, const SpanRecorder& rec) {
    os << "[";
    bool first = true;
    const auto emit = [&](const std::string& json) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "\n" << json;
    };

    // Process per PE (first appearance order; the empty PE — stimulus
    // processes — becomes "env"), plus one process per bus (BusXfer aux).
    std::vector<std::pair<std::uint32_t, int>> pe_pids;   // interned pe -> pid
    std::vector<std::pair<std::uint32_t, int>> bus_pids;  // interned bus -> pid
    int next_pid = 1;
    const auto pid_of = [&](std::vector<std::pair<std::uint32_t, int>>& tab,
                            std::uint32_t id, const char* fallback) {
        for (const auto& [k, pid] : tab) {
            if (k == id) {
                return pid;
            }
        }
        tab.emplace_back(id, next_pid);
        const std::string& name = rec.str(id);
        emit(R"({"name":"process_name","ph":"M","pid":)" + std::to_string(next_pid) +
             R"(,"args":{"name":")" +
             trace::json_escape(name.empty() ? fallback : name.c_str()) + "\"}}");
        return next_pid++;
    };
    // Thread per row (task state row, "<task>.io" row); tid 0 is the per-PE
    // IRQ row, so task tids start at 1.
    std::map<std::pair<int, std::string>, int> tids;
    std::map<int, int> next_tid;
    const auto tid_of = [&](int pid, const std::string& row) {
        const auto it = tids.find({pid, row});
        if (it != tids.end()) {
            return it->second;
        }
        int& next = next_tid[pid];
        const int tid = ++next;
        tids.emplace(std::make_pair(pid, row), tid);
        emit(R"({"name":"thread_name","ph":"M","pid":)" + std::to_string(pid) +
             R"(,"tid":)" + std::to_string(tid) + R"(,"args":{"name":")" +
             trace::json_escape(row) + "\"}}");
        return tid;
    };

    // Flow arrows: pair the i-th Send with the i-th Recv of each
    // (token, channel); arrows step "s" at the send's end and finish "f"
    // (bp "e") at the recv's end. Ids are assigned in pairing order.
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>,
             std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
        by_token_chan;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const SpanRecorder::SpanRec& s = rec.rec(i);
        if (s.token_id == kNoTokenId || s.t_end_ns == SpanRecorder::kOpenEnd) {
            continue;
        }
        const auto kind = static_cast<SpanKind>(s.kind);
        if (kind == SpanKind::Send) {
            by_token_chan[{s.token_id, s.token_born_ns, s.name}].first.push_back(i);
        } else if (kind == SpanKind::Recv) {
            by_token_chan[{s.token_id, s.token_born_ns, s.name}].second.push_back(i);
        }
    }
    std::map<std::size_t, std::pair<int, bool>> flow;  // record -> (id, is_start)
    int next_flow = 1;
    for (const auto& [key, sr] : by_token_chan) {
        const std::size_t n = std::min(sr.first.size(), sr.second.size());
        for (std::size_t i = 0; i < n; ++i) {
            flow[sr.first[i]] = {next_flow, true};
            flow[sr.second[i]] = {next_flow, false};
            ++next_flow;
        }
    }

    const auto slice = [&](int pid, int tid, const std::string& name,
                           std::uint64_t b, std::uint64_t e) {
        emit(R"({"name":")" + trace::json_escape(name) + R"(","ph":"X","pid":)" +
             std::to_string(pid) + R"(,"tid":)" + std::to_string(tid) + R"(,"ts":)" +
             us_str(b) + R"(,"dur":)" + us_str(e - b) + "}");
    };
    const auto instant = [&](int pid, int tid, const std::string& name,
                             std::uint64_t t) {
        emit(R"({"name":")" + trace::json_escape(name) + R"(","ph":"i","pid":)" +
             std::to_string(pid) + R"(,"tid":)" + std::to_string(tid) + R"(,"ts":)" +
             us_str(t) + R"(,"s":"t"})");
    };

    for (std::size_t i = 0; i < rec.size(); ++i) {
        const SpanRecorder::SpanRec& s = rec.rec(i);
        const auto kind = static_cast<SpanKind>(s.kind);
        const bool open = s.t_end_ns == SpanRecorder::kOpenEnd;
        switch (kind) {
            case SpanKind::TaskRun:
            case SpanKind::TaskReady:
            case SpanKind::TaskPreempt:
            case SpanKind::TaskBlock:
            case SpanKind::TaskIdle: {
                if (open) {
                    break;  // unfinished states are dropped, not clipped
                }
                static constexpr const char* kStateNames[] = {"run", "ready", "preempt",
                                                              "block", "idle"};
                const int pid = pid_of(pe_pids, s.pe, "env");
                const int tid = tid_of(pid, rec.str(s.name));
                slice(pid, tid, kStateNames[s.kind], s.t_begin_ns, s.t_end_ns);
                break;
            }
            case SpanKind::Job:
            case SpanKind::Recv:
            case SpanKind::Send: {
                if (open) {
                    break;
                }
                const int pid = pid_of(pe_pids, s.pe, "env");
                // Send/Recv: name = channel, aux = the task doing the I/O;
                // Job: name = task.
                const std::string& task =
                    kind == SpanKind::Job ? rec.str(s.name) : rec.str(s.aux);
                const int tid = tid_of(pid, task + ".io");
                const std::string label =
                    kind == SpanKind::Job
                        ? "job"
                        : (kind == SpanKind::Recv ? "recv:" : "send:") +
                              rec.str(s.name);
                slice(pid, tid, label, s.t_begin_ns, s.t_end_ns);
                if (const auto it = flow.find(i); it != flow.end()) {
                    const auto [fid, start] = it->second;
                    emit(R"({"name":"token","cat":"token","ph":")" +
                         std::string(start ? "s" : "f") +
                         (start ? std::string() : std::string(R"(","bp":"e)")) +
                         R"(","id":)" + std::to_string(fid) + R"(,"pid":)" +
                         std::to_string(pid) + R"(,"tid":)" + std::to_string(tid) +
                         R"(,"ts":)" + us_str(s.t_end_ns) + "}");
                }
                break;
            }
            case SpanKind::BusXfer: {
                if (open) {
                    break;
                }
                const int pid = pid_of(bus_pids, s.aux, "bus");
                const int tid = tid_of(pid, rec.str(s.name));
                slice(pid, tid, "xfer", s.t_begin_ns, s.t_end_ns);
                break;
            }
            case SpanKind::Isr: {
                const int pid = pid_of(pe_pids, s.pe, "env");
                instant(pid, 0, "irq:" + rec.str(s.name), s.t_begin_ns);
                break;
            }
            case SpanKind::Latency: {
                const int pid = pid_of(pe_pids, s.pe, "env");
                const int tid = tid_of(pid, rec.str(s.name) + ".io");
                instant(pid, tid, "latency:" + std::to_string(s.value) + "ns",
                        s.t_begin_ns);
                break;
            }
            case SpanKind::ChannelOp:
                break;  // too dense to chart; the span dump keeps them
        }
    }
    os << "\n]\n";
}

void register_span_stats(Registry& reg, const SpanRecorder& rec) {
    // Snapshot semantics: plain set() with values read now, so the registry
    // may outlive the recorder.
    reg.gauge("slm_span_records", "Recorded spans").set(static_cast<double>(rec.size()));
    reg.gauge("slm_span_strings", "Interned span strings")
        .set(static_cast<double>(rec.string_count()));
    reg.gauge("slm_span_open", "Spans still open (0 after a clean teardown)")
        .set(static_cast<double>(rec.open_count()));
    std::size_t latency_records = 0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        if (static_cast<SpanKind>(rec.rec(i).kind) == SpanKind::Latency) {
            ++latency_records;
        }
    }
    reg.gauge("slm_span_latency_records", "Recorded end-to-end latency samples")
        .set(static_cast<double>(latency_records));
    const CriticalPath worst = worst_critical_path(rec);
    reg.gauge("slm_span_critical_path_total_ns",
              "Worst observed end-to-end latency (critical path total)")
        .set(worst.valid ? static_cast<double>(worst.total_ns) : 0.0);
    for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
        reg.gauge("slm_span_critical_path_ns",
                  "Worst critical path, exact per-category breakdown",
                  {{"category", to_string(static_cast<PathCategory>(c))}})
            .set(worst.valid ? static_cast<double>(worst.by_category[c]) : 0.0);
    }
}

}  // namespace slm::obs
