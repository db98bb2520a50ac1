#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "fault/campaign.hpp"
#include "obs/metrics.hpp"
#include "parallel/cache.hpp"

namespace slm::parallel {

/// Multi-core drivers for the two embarrassingly parallel workloads of the
/// repo: schedule-space exploration (explore::Explorer::explore()) and fault
/// campaign seed sweeps (fault::run_campaign()). A work-stealing pool shards
/// the work — decision-trace prefixes for exploration, seeds for campaigns —
/// across workers that each own a private kernel, and merges the results
/// deterministically, so an N-thread run emits byte-identical canonical
/// output (explore::write_result_json / fault::write_campaign_json) to the
/// serial engine. ci/check_parallel.sh enforces that equivalence; the full
/// architecture, sharding invariants, and determinism contract live in
/// docs/parallel-exploration.md.

struct ParallelConfig {
    /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
    unsigned jobs = 0;
    /// Shared result cache for warm re-runs; nullptr disables caching.
    ResultCache* cache = nullptr;
    /// Names the model build for cache keys. The caller must change it
    /// whenever the model, its parameters, or the fault plan change — it is
    /// the only part of the cache key the engine cannot derive itself.
    std::string model_fingerprint;
};

/// Counters of one parallel run (filled when a stats out-param is passed).
/// Expose through the metrics registry with register_parallel_stats().
struct ParallelStats {
    std::uint64_t workers = 0;
    std::uint64_t tasks_executed = 0;  ///< work items processed (incl. cached)
    std::uint64_t tasks_stolen = 0;    ///< items taken from another worker's deque
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// First failures re-simulated for their trace: 1 per exploration that
    /// found a violation, whether the cache served the path or not.
    std::uint64_t first_failure_replays = 0;
    std::uint64_t busy_ns = 0;  ///< summed per-worker time spent processing items
    std::uint64_t wall_ns = 0;  ///< pool wall-clock time

    /// Fraction of worker-seconds spent processing items: busy / (workers *
    /// wall). Approaches 1.0 when stealing keeps everyone fed.
    [[nodiscard]] double utilization() const {
        if (workers == 0 || wall_ns == 0) {
            return 0.0;
        }
        return static_cast<double>(busy_ns) /
               (static_cast<double>(workers) * static_cast<double>(wall_ns));
    }
};

/// Parallel equivalent of constructing explore::Explorer{build, cfg} and
/// calling explore(). Workers claim plan prefixes, expand them with the
/// serial engine's own bounded DFS primitive (Explorer::expand()), and push
/// sibling prefixes for stealing. The merged result is byte-identical to the
/// serial engine's whenever the bounded space is explored to completion
/// within cfg.max_paths; under a hit budget cap the *which paths ran* differs
/// (documented in docs/parallel-exploration.md), and when only
/// cfg.max_violations is hit the violation list still matches (both engines
/// keep the lexicographically first max_violations entries).
///
/// `build` is called concurrently from every worker — see the BuildFn
/// thread-safety contract on explore::Explorer.
[[nodiscard]] explore::ExploreResult explore(const explore::Explorer::BuildFn& build,
                                             const explore::ExploreConfig& cfg = {},
                                             const ParallelConfig& pcfg = {},
                                             ParallelStats* stats_out = nullptr);

/// Parallel equivalent of fault::run_campaign(): seeds are sharded across the
/// pool, each worker runs whole seeds with its own FaultInjector, and results
/// land in seed order — trivially byte-identical to the serial sweep. `fn`
/// is called concurrently from every worker (see CampaignRunFn).
[[nodiscard]] fault::CampaignResult run_campaign(const fault::FaultPlan& plan,
                                                 const fault::CampaignConfig& cfg,
                                                 const fault::CampaignRunFn& fn,
                                                 const ParallelConfig& pcfg = {},
                                                 ParallelStats* stats_out = nullptr);

/// The deterministic index sharder under sys::run_sweep (and any future
/// embarrassingly indexed workload): runs fn(i) for every i in [0, count)
/// across a work-stealing pool of `jobs` threads (0 = hardware concurrency),
/// dealing indices round-robin and rebalancing by stealing. `fn` is called
/// concurrently from every worker and exactly once per index; determinism is
/// the caller's contract, the same as run_campaign's — write each result
/// into a caller-owned index-keyed slot (disjoint slots need no lock) and
/// merge in index order. jobs == 1 degrades to a plain serial loop on the
/// calling thread, so a serial sweep needs no thread at all.
void for_each_index(std::size_t count, unsigned jobs,
                    const std::function<void(std::size_t)>& fn,
                    ParallelStats* stats_out = nullptr);

/// Register the counters as slm_parallel_* callback gauges (tasks stolen,
/// cache hits, utilization, ...). `s` must outlive the registry's exports,
/// like every other register_*_stats target.
void register_parallel_stats(obs::Registry& reg, const ParallelStats& s,
                             obs::Labels base = {});

// ---- cache key schema (exposed for tests; see docs/parallel-exploration.md) ----

/// "x/<fingerprint>/<config-digest-hex>/<plan-as-trace-string>". The config
/// digest covers every ExploreConfig field that changes a single expansion's
/// outcome (preemption bound, horizon, per-run choice cap, check_* flags).
[[nodiscard]] std::string expansion_cache_key(const std::string& fingerprint,
                                              const explore::ExploreConfig& cfg,
                                              const std::vector<std::uint32_t>& plan);

/// "c/<fingerprint>/<plan-digest-hex>/<seed>". The plan digest covers every
/// FaultSpec field, so editing the fault plan invalidates cached runs even
/// under an unchanged model fingerprint.
[[nodiscard]] std::string campaign_cache_key(const std::string& fingerprint,
                                             const fault::FaultPlan& plan,
                                             std::uint64_t seed);

}  // namespace slm::parallel
