#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/assert.hpp"

namespace slm::trace {

/// The interning machinery shared by the fixed-width recorders
/// (TraceRecorder, obs::SpanRecorder): a deduplicating string table with a
/// direct-mapped lookup cache, and fixed-width record storage in stable
/// chunks. Factored out so every fixed-width recorder resolves strings and
/// appends records the same way — and the costs are benched once
/// (bench_trace, bench_spans).
///
/// Both containers allocate nothing until the first insertion, and a
/// moved-from container is empty and reusable: recorders are built and
/// moved once per explored path.

/// Append-only fixed-width record storage in fixed-size chunks: appends never
/// reallocate-and-copy (the dominant cost of a growing vector at trace
/// sizes), the index math is two shifts, and element addresses are stable —
/// so a recorder may patch an earlier record in place (SpanRecorder closes
/// spans that way). 2^Shift records per chunk.
template <typename Rec, std::size_t Shift = 16>
class RecordLog {
public:
    static constexpr std::size_t kChunkSize = std::size_t{1} << Shift;
    static constexpr std::size_t kChunkMask = kChunkSize - 1;

    RecordLog() = default;
    RecordLog(RecordLog&& o) noexcept { *this = std::move(o); }
    RecordLog& operator=(RecordLog&& o) noexcept {
        chunks_ = std::exchange(o.chunks_, {});
        tail_ = std::exchange(o.tail_, nullptr);
        tail_end_ = std::exchange(o.tail_end_, nullptr);
        size_ = std::exchange(o.size_, 0);
        return *this;
    }

    /// Append and return the record's index.
    std::size_t append(Rec r) {
        if (tail_ == tail_end_) {
            grow();
        }
        *tail_++ = std::move(r);
        return size_++;
    }

    [[nodiscard]] const Rec& operator[](std::size_t i) const {
        return chunks_[i >> Shift][i & kChunkMask];
    }
    /// Mutable access for in-place patching of an already-appended record.
    [[nodiscard]] Rec& at(std::size_t i) { return chunks_[i >> Shift][i & kChunkMask]; }
    /// The last record (the log must not be empty).
    [[nodiscard]] const Rec& back() const { return tail_[-1]; }

    [[nodiscard]] std::size_t size() const { return size_; }

    void clear() { *this = RecordLog{}; }

private:
    void grow() {
        // for_overwrite: skip zero-initialization — every slot is written
        // before it is ever read (size_ gates all reads).
        chunks_.push_back(std::make_unique_for_overwrite<Rec[]>(kChunkSize));
        tail_ = chunks_.back().get();
        tail_end_ = tail_ + kChunkSize;
    }

    std::vector<std::unique_ptr<Rec[]>> chunks_;
    Rec* tail_ = nullptr;      ///< next write position in the last chunk
    Rec* tail_end_ = nullptr;  ///< end of the last chunk
    std::size_t size_ = 0;
};

/// Deduplicating string table: string -> dense 32-bit id, id 0 always the
/// empty string. Strings live in stable chunked storage (a RecordLog) under
/// an open-addressing hash index. In front of the index sits a direct-mapped
/// cache indexed by a hash of the string_view's *pointer*: callers pass
/// views of long-lived std::strings (task names, cpu names), so the same
/// pointer recurs on the hot path. A hit is *verified* by comparing the
/// incoming bytes against the interned string's bytes, so a reused pointer
/// or a colliding slot degrades to an index lookup, never to a wrong id. The
/// cache is allocated when a string is first interned a second time, so a
/// table of unique strings (explore's per-decision markers) never pays for
/// it.
class StringTable {
public:
    [[nodiscard]] std::uint32_t intern(std::string_view s) {
        if (s.empty()) {
            return 0;
        }
        // Verify by content, not by pointer: the slot only *suggests* an id.
        if (cache_) {
            const CacheSlot& slot = cache_[slot_of(s)];
            if (slot.size == s.size() && slot.data != nullptr &&
                std::memcmp(slot.data, s.data(), s.size()) == 0) {
                return slot.id;
            }
        }
        return intern_slow(s);
    }

    /// The id of `s` if it has been interned (no insertion).
    [[nodiscard]] std::optional<std::uint32_t> find(std::string_view s) const {
        if (s.empty()) {
            return 0;
        }
        const std::uint32_t id = index_.empty() ? 0 : index_[probe(s)];
        return id != 0 ? std::optional<std::uint32_t>{id} : std::nullopt;
    }

    /// The interned string for `id` (asserts on out-of-range ids).
    [[nodiscard]] const std::string& str(std::uint32_t id) const {
        static const std::string kEmpty;
        if (id == 0) {
            return kEmpty;
        }
        SLM_ASSERT(id < count(), "string id out of range");
        return strings_[id - 1];
    }

    /// Number of distinct strings, the empty string (id 0) included.
    [[nodiscard]] std::size_t count() const { return strings_.size() + 1; }

    void clear() { *this = StringTable{}; }

private:
    struct CacheSlot {
        const char* data = nullptr;  ///< interned bytes (not the caller's)
        std::size_t size = 0;
        std::uint32_t id = 0;
    };
    static constexpr std::size_t kCacheSize = 256;  // power of two

    static std::size_t slot_of(std::string_view s) {
        auto h = reinterpret_cast<std::uintptr_t>(s.data());
        h ^= (h >> 4) ^ (h >> 11);
        return h & (kCacheSize - 1);
    }

    /// The index slot holding `s`'s id, or the empty slot where it belongs.
    [[nodiscard]] std::size_t probe(std::string_view s) const {
        const std::size_t mask = index_.size() - 1;
        std::size_t i = std::hash<std::string_view>{}(s) & mask;
        while (index_[i] != 0 && strings_[index_[i] - 1] != s) {
            i = (i + 1) & mask;
        }
        return i;
    }

    /// Cache miss: index lookup, insertion on first use, and cache refill.
    [[gnu::noinline]] std::uint32_t intern_slow(std::string_view s) {
        if (index_.empty()) {
            index_.resize(16);
        }
        const std::size_t i = probe(s);
        std::uint32_t id = index_[i];
        if (id == 0) {
            id = static_cast<std::uint32_t>(count());
            strings_.append(std::string(s));
            index_[i] = id;
            if (2 * count() > index_.size()) {  // keep the load factor <= 1/2
                index_.assign(2 * index_.size(), 0);
                for (std::uint32_t k = 1; k < count(); ++k) {
                    index_[probe(str(k))] = k;
                }
            }
        } else if (!cache_) {
            cache_ = std::make_unique<CacheSlot[]>(kCacheSize);
        }
        if (cache_) {
            cache_[slot_of(s)] = CacheSlot{str(id).data(), s.size(), id};
        }
        return id;
    }

    RecordLog<std::string, 4> strings_;  ///< id k at index k - 1; stable addresses
    std::vector<std::uint32_t> index_;   ///< open addressing over ids; 0 = empty
    std::unique_ptr<CacheSlot[]> cache_;
};

}  // namespace slm::trace
