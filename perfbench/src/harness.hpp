#pragma once

// Measurement plumbing shared by the workloads: timing, the percentile rule,
// the ledger of checked operations, the simulated-result digest and the
// report printed at the end of a run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// A timing sample reduced to what the benchmark reports: the median, the
/// highest percentile on the ladder 50/75/90/95/99/99.9 that still has at
/// least ten samples beyond it, and the sample count. Below 20 samples no
/// level qualifies and the tail is the median.
struct Summary {
    std::size_t n = 0;
    double p50 = 0;
    double tail_level = 0.5;
    double tail = 0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& v);

/// The tail level summarize() picks for `n` samples.
[[nodiscard]] double tail_level(std::size_t n);

/// Per-layer rows of one end-to-end number, closed by an explicit residual so
/// that parts + residual == total.
struct LayerSplit {
    std::vector<std::pair<std::string, double>> parts;
    double total = 0;
    double residual = 0;

    [[nodiscard]] double sum() const;
};

[[nodiscard]] LayerSplit split_layers(double total,
                                      std::vector<std::pair<std::string, double>> parts);

/// FNV-1a over the simulated fields of a result. Host times never enter it,
/// so two commits that simulate the same behaviour print the same digest.
class Digest {
public:
    void mix(std::uint64_t v);
    void mix(std::string_view s);
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/// Counts checked operations. Every workload operation is attempted once and
/// fails when any of its output checks fails; the run is correct when none
/// failed.
class Ledger {
public:
    /// Record one operation whose checks all passed (`ok`) or not.
    void op(bool ok, std::string_view what);
    /// Record an operation whose result digest must equal the reference
    /// digest of the same input.
    void op_digest(std::uint64_t reference, std::uint64_t got, std::string_view what);

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;  ///< first few, verbatim
};

/// Timed calls into the layers, kept in memory by the traced run and
/// written out as JSON lines when the run ends.
class SpanLog {
public:
    /// Open a span named after the call it times; returns its index, the
    /// parent of the spans opened inside it.
    std::size_t begin(std::string name, std::size_t parent = kNoParent);
    void end(std::size_t span);
    [[nodiscard]] std::size_t size() const { return spans_.size(); }
    /// One object per line: name, parent index (-1 for none), begin and end
    /// in microseconds since the log was created.
    [[nodiscard]] bool write(const std::string& path) const;

    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

private:
    struct Span {
        std::string name;
        std::size_t parent;
        Clock::time_point begin;
        Clock::time_point end;
    };
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one run prints: human-readable lines first, then the result object
/// as the last line of standard output.
class Report {
public:
    void metric(std::string name, double value, std::string unit);
    /// Print `name` with its median, tail and sample count (not a JSON metric).
    void line(std::string_view name, const Summary& s, std::string_view unit) const;
    void note(std::string_view text) const;

    [[nodiscard]] std::string json(const Ledger& ledger) const;

private:
    std::vector<Metric> metrics_;
};

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Run `fn` `reps` times and return the median wall time in seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
    std::vector<double> t;
    t.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(seconds_since(t0));
    }
    return percentile(std::move(t), 0.5);
}

/// Operation count for a run of `seconds`, from the workload's nominal rate
/// on the reference box. Counts, not deadlines, bound a run so that a commit
/// that is faster does the same work and reports the same percentile levels.
[[nodiscard]] std::size_t ops_for(double seconds, double nominal_per_s, std::size_t min_ops);

}  // namespace perfbench
