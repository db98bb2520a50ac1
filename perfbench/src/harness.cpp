#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double tail_level(std::size_t n) {
    double best = 0.5;
    for (const double q : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
        const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
        if (n >= rank + 10) {
            best = q;
        }
    }
    return best;
}

Summary summarize(const std::vector<double>& v) {
    Summary s;
    s.n = v.size();
    s.p50 = percentile(v, 0.5);
    s.tail_level = tail_level(v.size());
    s.tail = percentile(v, s.tail_level);
    return s;
}

double LayerSplit::sum() const {
    double s = 0;
    for (const auto& [name, v] : parts) {
        s += v;
    }
    return s + residual;
}

LayerSplit split_layers(double total, std::vector<std::pair<std::string, double>> parts) {
    LayerSplit out;
    out.parts = std::move(parts);
    out.total = total;
    double s = 0;
    for (const auto& [name, v] : out.parts) {
        s += v;
    }
    out.residual = total - s;
    return out;
}

void Digest::mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void Digest::mix(std::string_view s) {
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
    mix(static_cast<std::uint64_t>(s.size()));
}

void Ledger::op(bool ok, std::string_view what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 8) {
            failures_.emplace_back(what);
        }
    }
}

void Ledger::op_digest(std::uint64_t reference, std::uint64_t got, std::string_view what) {
    if (reference == got) {
        op(true, what);
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, ": digest %016" PRIx64 " != %016" PRIx64, got, reference);
    op(false, std::string(what) + buf);
}

std::size_t SpanLog::begin(std::string name, std::size_t parent) {
    const Clock::time_point now = Clock::now();
    spans_.push_back(Span{std::move(name), parent, now, now});
    return spans_.size() - 1;
}

void SpanLog::end(std::size_t span) {
    spans_[span].end = Clock::now();
}

bool SpanLog::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    for (const Span& s : spans_) {
        std::fprintf(f, "{\"name\": \"%s\", \"parent\": %lld, \"begin_us\": %.3f, \"end_us\": %.3f}\n",
                     s.name.c_str(),
                     s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                     us(s.begin), us(s.end));
    }
    return std::fclose(f) == 0;
}

void Report::metric(std::string name, double value, std::string unit) {
    std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::line(std::string_view name, const Summary& s, std::string_view unit) const {
    std::printf("  %-32.*s p50 %.6g %.*s, p%g %.6g %.*s, n=%zu\n",
                static_cast<int>(name.size()), name.data(), s.p50,
                static_cast<int>(unit.size()), unit.data(), s.tail_level * 100, s.tail,
                static_cast<int>(unit.size()), unit.data(), s.n);
}

void Report::note(std::string_view text) const {
    std::printf("%.*s\n", static_cast<int>(text.size()), text.data());
}

std::string Report::json(const Ledger& ledger) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
           << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return std::move(os).str();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::size_t ops_for(double seconds, double nominal_per_s, std::size_t min_ops) {
    const auto n = static_cast<std::size_t>(std::llround(seconds * nominal_per_s));
    return std::max(n, min_ops);
}

}  // namespace perfbench
