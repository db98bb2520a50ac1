#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "sim/assert.hpp"

namespace slm::trace {

const char* to_string(RecordKind k) {
    switch (k) {
        case RecordKind::TaskState: return "task_state";
        case RecordKind::ContextSwitch: return "context_switch";
        case RecordKind::Irq: return "irq";
        case RecordKind::ExecBegin: return "exec_begin";
        case RecordKind::ExecEnd: return "exec_end";
        case RecordKind::ChannelOp: return "channel_op";
        case RecordKind::Marker: return "marker";
    }
    return "?";
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

namespace {

constexpr std::uint32_t kMagic = 0x534C5442;  // "SLTB"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxKind = static_cast<std::uint32_t>(RecordKind::Marker);

// Sanity caps for load(): a corrupted length field must not turn into a
// multi-gigabyte allocation before the stream read fails. Real traces stay
// far below both (strings are task/cpu/irq names and short markers).
constexpr std::uint32_t kMaxStringLen = 1u << 20;  // 1 MiB per interned string
constexpr std::uint32_t kMaxStrings = 1u << 24;    // 16M distinct strings

// Little-endian fixed-width unsigned integers (std::uint32_t / std::uint64_t).
template <typename U>
void put_le(std::ostream& os, U v) {
    char b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
        b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    os.write(b, sizeof(U));
}

template <typename U>
bool get_le(std::istream& is, U& v) {
    char b[sizeof(U)];
    if (!is.read(b, sizeof(U))) {
        return false;
    }
    v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
        v |= static_cast<U>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return true;
}

bool is_exec_or_state(const Record& r) {
    return r.kind == RecordKind::ExecBegin || r.kind == RecordKind::ExecEnd ||
           r.kind == RecordKind::TaskState;
}

}  // namespace

void TraceRecorder::push(SimTime t, RecordKind kind, std::uint32_t cpu,
                         std::uint32_t actor, std::uint32_t detail) {
    SLM_ASSERT(records_.size() == 0 || t.ns() >= records_.back().t_ns,
               "trace records must arrive in nondecreasing time order");
    records_.append(Record{t.ns(), kind, cpu, actor, detail});
}

void TraceRecorder::exec_begin(SimTime t, std::string_view cpu, std::string_view actor) {
    push(t, RecordKind::ExecBegin, strings_.intern(cpu), strings_.intern(actor), 0);
}

void TraceRecorder::exec_end(SimTime t, std::string_view cpu, std::string_view actor) {
    push(t, RecordKind::ExecEnd, strings_.intern(cpu), strings_.intern(actor), 0);
}

void TraceRecorder::task_state(SimTime t, std::string_view cpu, std::string_view actor,
                               std::string_view state) {
    push(t, RecordKind::TaskState, strings_.intern(cpu), strings_.intern(actor),
         strings_.intern(state));
}

void TraceRecorder::context_switch(SimTime t, std::string_view cpu, std::string_view to,
                                   std::string_view from) {
    push(t, RecordKind::ContextSwitch, strings_.intern(cpu), strings_.intern(to),
         strings_.intern(from));
}

void TraceRecorder::irq(SimTime t, std::string_view cpu, std::string_view irq_name) {
    push(t, RecordKind::Irq, strings_.intern(cpu), strings_.intern(irq_name), 0);
}

void TraceRecorder::channel_op(SimTime t, std::string_view channel, std::string_view op) {
    push(t, RecordKind::ChannelOp, 0, strings_.intern(channel), strings_.intern(op));
}

void TraceRecorder::marker(SimTime t, std::string_view text) {
    push(t, RecordKind::Marker, 0, 0, strings_.intern(text));
}

void TraceRecorder::clear() {
    records_.clear();
    strings_.clear();
}

std::size_t TraceRecorder::count(RecordKind k) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        n += records_[i].kind == k ? 1 : 0;
    }
    return n;
}

std::size_t TraceRecorder::context_switches(std::string_view cpu) const {
    const std::optional<std::uint32_t> id = strings_.find(cpu);
    std::size_t n = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        const Record& r = records_[i];
        n += r.kind == RecordKind::ContextSwitch && (cpu.empty() || r.cpu == id) ? 1 : 0;
    }
    return n;
}

std::vector<Interval> TraceRecorder::intervals_of(std::uint32_t actor) const {
    const std::optional<std::uint32_t> running_id = strings_.find("Running");
    std::vector<Interval> out;
    bool open = false;
    std::uint64_t begin = 0;
    const auto close = [&](std::uint64_t end) {
        if (end > begin) {
            out.push_back({nanoseconds(begin), nanoseconds(end), str(actor)});
        }
    };
    for (std::size_t i = 0; i < size(); ++i) {
        const Record& r = records_[i];
        if (r.actor != actor || !is_exec_or_state(r)) {
            continue;
        }
        const bool running = r.kind == RecordKind::ExecBegin ||
                             (r.kind == RecordKind::TaskState && r.detail == running_id);
        if (!open && running) {
            open = true;
            begin = r.t_ns;
        } else if (open && !running) {
            open = false;
            close(r.t_ns);
        }
    }
    if (open) {
        close(records_.back().t_ns);
    }
    return out;
}

std::vector<Interval> TraceRecorder::intervals(std::string_view actor) const {
    const std::optional<std::uint32_t> id = strings_.find(actor);
    return id ? intervals_of(*id) : std::vector<Interval>{};
}

std::vector<std::uint32_t> TraceRecorder::actor_ids() const {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < size(); ++i) {
        const Record& r = records_[i];
        if (is_exec_or_state(r) && std::find(out.begin(), out.end(), r.actor) == out.end()) {
            out.push_back(r.actor);
        }
    }
    return out;
}

std::vector<std::string> TraceRecorder::actors() const {
    std::vector<std::string> out;
    for (const std::uint32_t id : actor_ids()) {
        out.push_back(str(id));
    }
    return out;
}

SimTime TraceRecorder::busy_time(std::string_view actor) const {
    SimTime total;
    for (const Interval& iv : intervals(actor)) {
        total += iv.end - iv.begin;
    }
    return total;
}

bool TraceRecorder::has_concurrent_execution(std::string_view cpu) const {
    // Gather intervals of all actors that have records on this cpu and check
    // pairwise overlap after sorting by start time.
    const std::optional<std::uint32_t> cpu_id = strings_.find(cpu);
    std::vector<Interval> all;
    for (const std::uint32_t a : actor_ids()) {
        bool on_cpu = false;
        for (std::size_t i = 0; i < size() && !on_cpu; ++i) {
            const Record& r = records_[i];
            on_cpu = r.actor == a && r.cpu == cpu_id &&
                     (r.kind == RecordKind::ExecBegin || r.kind == RecordKind::TaskState);
        }
        if (!on_cpu) {
            continue;
        }
        const auto ivs = intervals_of(a);
        all.insert(all.end(), ivs.begin(), ivs.end());
    }
    std::sort(all.begin(), all.end(),
              [](const Interval& x, const Interval& y) { return x.begin < y.begin; });
    for (std::size_t i = 1; i < all.size(); ++i) {
        if (all[i].begin < all[i - 1].end) {
            return true;
        }
    }
    return false;
}

std::vector<SimTime> TraceRecorder::irq_times(std::string_view name) const {
    const std::optional<std::uint32_t> id = strings_.find(name);
    std::vector<SimTime> out;
    for (std::size_t i = 0; i < size(); ++i) {
        const Record& r = records_[i];
        if (r.kind == RecordKind::Irq && (name.empty() || r.actor == id)) {
            out.push_back(nanoseconds(r.t_ns));
        }
    }
    return out;
}

std::string TraceRecorder::render_gantt(SimTime t0, SimTime t1, int width) const {
    SLM_ASSERT(t1 > t0 && width > 0, "render_gantt needs a non-empty window");
    std::ostringstream os;
    const double span = static_cast<double>((t1 - t0).ns());
    const auto bucket_of = [&](SimTime t) {
        const double frac = static_cast<double>((t - t0).ns()) / span;
        return std::clamp(static_cast<int>(frac * width), 0, width - 1);
    };

    std::size_t name_w = 4;
    const auto ids = actor_ids();
    for (const std::uint32_t id : ids) {
        name_w = std::max(name_w, str(id).size());
    }

    for (const std::uint32_t id : ids) {
        std::string row(static_cast<std::size_t>(width), '.');
        for (const Interval& iv : intervals_of(id)) {
            if (iv.end <= t0 || iv.begin >= t1) {
                continue;
            }
            const int b0 = bucket_of(std::max(iv.begin, t0));
            const int b1 = bucket_of(std::min(iv.end, t1) - nanoseconds(1));
            for (int b = b0; b <= b1; ++b) {
                row[static_cast<std::size_t>(b)] = '#';
            }
        }
        const std::string& a = str(id);
        os << a << std::string(name_w - a.size(), ' ') << " |" << row << "|\n";
    }

    const auto irqs = irq_times();
    if (!irqs.empty()) {
        std::string row(static_cast<std::size_t>(width), ' ');
        for (const SimTime t : irqs) {
            if (t >= t0 && t < t1) {
                row[static_cast<std::size_t>(bucket_of(t))] = '^';
            }
        }
        os << "irq" << std::string(name_w - 3, ' ') << "  " << row << "\n";
    }
    os << "time" << std::string(name_w - 4, ' ') << "  " << t0.to_string() << " .. "
       << t1.to_string() << "\n";
    return os.str();
}

std::string TraceRecorder::utilization_report(SimTime t0, SimTime t1) const {
    SLM_ASSERT(t1 > t0, "utilization_report needs a non-empty window");
    std::ostringstream os;
    const double window = static_cast<double>((t1 - t0).ns());
    const auto ids = actor_ids();
    std::size_t name_w = 5;
    for (const std::uint32_t id : ids) {
        name_w = std::max(name_w, str(id).size());
    }
    os << "actor" << std::string(name_w - 5, ' ') << "  busy        util    intervals\n";
    for (const std::uint32_t id : ids) {
        SimTime busy;
        std::size_t count = 0;
        for (const Interval& iv : intervals_of(id)) {
            const SimTime b = std::max(iv.begin, t0);
            const SimTime e = std::min(iv.end, t1);
            if (e > b) {
                busy += e - b;
                ++count;
            }
        }
        char line[96];
        std::snprintf(line, sizeof line, "%-*s  %-10s  %5.1f%%  %9zu\n",
                      static_cast<int>(name_w), str(id).c_str(), busy.to_string().c_str(),
                      100.0 * static_cast<double>(busy.ns()) / window, count);
        os << line;
    }
    return os.str();
}

void TraceRecorder::write_csv(std::ostream& os) const {
    os << "t_ns,kind,cpu,actor,detail\n";
    for (std::size_t i = 0; i < size(); ++i) {
        const Record& r = records_[i];
        os << r.t_ns << ',' << to_string(r.kind) << ',' << str(r.cpu) << ','
           << str(r.actor) << ',' << str(r.detail) << '\n';
    }
}

void TraceRecorder::write_vcd(std::ostream& os) const {
    // One wire per actor; wire i is named by the printable character '!' + i.
    const auto ids = actor_ids();
    os << "$timescale 1ns $end\n$scope module trace $end\n";
    for (std::size_t i = 0; i < ids.size(); ++i) {
        os << "$var wire 1 " << static_cast<char>('!' + i) << ' ' << str(ids[i])
           << " $end\n";
    }
    os << "$upscope $end\n$enddefinitions $end\n";

    // Emit value changes from the interval view, merged in time order.
    struct Change {
        SimTime t;
        char id;
        bool value;
    };
    std::vector<Change> changes;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const char wire = static_cast<char>('!' + i);
        for (const Interval& iv : intervals_of(ids[i])) {
            changes.push_back({iv.begin, wire, true});
            changes.push_back({iv.end, wire, false});
        }
    }
    std::sort(changes.begin(), changes.end(),
              [](const Change& x, const Change& y) { return x.t < y.t; });

    os << "#0\n";
    for (std::size_t i = 0; i < ids.size(); ++i) {
        os << '0' << static_cast<char>('!' + i) << '\n';
    }
    SimTime last;
    bool first = true;
    for (const Change& c : changes) {
        if (first || c.t != last) {
            os << '#' << c.t.ns() << '\n';
            last = c.t;
            first = false;
        }
        os << (c.value ? '1' : '0') << c.id << '\n';
    }
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
    os << "[";
    bool first = true;
    const auto emit = [&](const std::string& json) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "\n" << json;
    };
    // Fixed-point microsecond rendering; names are json_escape()d so actors
    // containing '"' or '\' still produce valid JSON.
    const auto us = [](SimTime t) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t.ns()) / 1000.0);
        return std::string(buf);
    };

    int tid = 1;
    for (const std::uint32_t id : actor_ids()) {
        const std::string name = json_escape(str(id));
        emit(R"({"name":"thread_name","ph":"M","pid":1,"tid":)" + std::to_string(tid) +
             R"(,"args":{"name":")" + name + "\"}}");
        for (const Interval& iv : intervals_of(id)) {
            emit(R"({"name":")" + name + R"(","ph":"X","pid":1,"tid":)" +
                 std::to_string(tid) + R"(,"ts":)" + us(iv.begin) + R"(,"dur":)" +
                 us(iv.end - iv.begin) + "}");
        }
        ++tid;
    }
    for (std::size_t i = 0; i < size(); ++i) {
        const Record& r = records_[i];
        if (r.kind == RecordKind::Irq) {
            emit(R"({"name":"irq:)" + json_escape(str(r.actor)) +
                 R"(","ph":"i","pid":1,"tid":0,"ts":)" + us(nanoseconds(r.t_ns)) +
                 R"(,"s":"g"})");
        }
    }
    os << "\n]\n";
}

void TraceRecorder::save(std::ostream& os) const {
    put_le(os, kMagic);
    put_le(os, kVersion);
    put_le(os, static_cast<std::uint32_t>(strings_.count()));
    for (std::uint32_t i = 0; i < strings_.count(); ++i) {
        const std::string& s = strings_.str(i);
        put_le(os, static_cast<std::uint32_t>(s.size()));
        os.write(s.data(), static_cast<std::streamsize>(s.size()));
    }
    put_le<std::uint64_t>(os, records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        put_le(os, r.t_ns);
        put_le(os, static_cast<std::uint32_t>(r.kind));
        put_le(os, r.cpu);
        put_le(os, r.actor);
        put_le(os, r.detail);
    }
}

bool TraceRecorder::load(std::istream& is) {
    clear();
    if (!read(is)) {
        clear();
        return false;
    }
    return true;
}

bool TraceRecorder::read(std::istream& is) {
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t nstrings = 0;
    if (!get_le(is, magic) || magic != kMagic || !get_le(is, version) ||
        version != kVersion || !get_le(is, nstrings) || nstrings == 0 ||
        nstrings > kMaxStrings) {
        return false;
    }
    // Stream ids map to interned ids, so equal ids mean equal strings even
    // for a stream whose table repeats a string.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < nstrings; ++i) {
        std::uint32_t len = 0;
        if (!get_le(is, len) || len > kMaxStringLen) {
            return false;
        }
        std::string s(len, '\0');
        if (len > 0 && !is.read(s.data(), static_cast<std::streamsize>(len))) {
            return false;
        }
        if (i == 0 && !s.empty()) {
            return false;  // slot 0 is always the empty string
        }
        ids.push_back(strings_.intern(s));
    }
    std::uint64_t nrecords = 0;
    if (!get_le(is, nrecords)) {
        return false;
    }
    for (std::uint64_t i = 0; i < nrecords; ++i) {
        std::uint64_t t_ns = 0;
        std::uint32_t kind = 0;
        std::uint32_t cpu = 0;
        std::uint32_t actor = 0;
        std::uint32_t detail = 0;
        if (!get_le(is, t_ns) || !get_le(is, kind) || !get_le(is, cpu) ||
            !get_le(is, actor) || !get_le(is, detail) || kind > kMaxKind ||
            cpu >= nstrings || actor >= nstrings || detail >= nstrings ||
            (records_.size() > 0 && t_ns < records_.back().t_ns)) {
            return false;
        }
        records_.append(Record{t_ns, static_cast<RecordKind>(kind), ids[cpu], ids[actor],
                               ids[detail]});
    }
    return true;
}

}  // namespace slm::trace
