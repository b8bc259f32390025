/**
 * @file
 * Dense shadow storage shared by the coherence checker and the
 * happens-before detector.
 *
 * Both checkers keep per-64-byte-line state for the objects the models
 * instrument (a NIC DRAM region, a queue's ring). Instead of hashing
 * (object, line) on every hook, each object owns one LineWindow: a
 * contiguous array of line states over the lines it was registered
 * with, so a line lookup is an index. Objects are interned by address
 * in an ObjectTable, which also remembers the last object it served —
 * consecutive hooks on one object skip even that lookup.
 *
 * The models register every window at bind time, which fixes each
 * array's extent; the array itself is allocated whole on the first
 * access that stores state, so it never grows while the model runs and
 * a deployment that is built but never driven pays almost nothing. An
 * object nothing registered (a unit test's local buffer, a
 * microbenchmark) gets a window that widens to cover each access,
 * bounded by the extent the object is accessed over.
 */
// wave-domain: neutral
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <unordered_map>
#include <vector>

namespace wave::check {

/**
 * Per-line state of one object over a contiguous range of lines. The
 * range is fixed by Cover(); the storage for all of it is allocated at
 * once by the first At(), so an object nobody touches costs nothing.
 */
template <typename State>
class LineWindow {
  public:
    /** Widens the window to cover lines [first, last]. */
    void
    Cover(std::size_t first, std::size_t last)
    {
        if (count_ == 0) {
            first_ = first;
            count_ = last - first + 1;
        } else {
            if (first < first_) {
                if (!lines_.empty()) {
                    lines_.insert(lines_.begin(), first_ - first, State{});
                }
                count_ += first_ - first;
                first_ = first;
            }
            if (last - first_ >= count_) count_ = last - first_ + 1;
        }
        if (!lines_.empty()) lines_.resize(count_);
    }

    /** State of @p line, or nullptr when it has none yet. */
    State*
    Find(std::size_t line)
    {
        const std::size_t index = line - first_;  // wraps below first_
        return index < lines_.size() ? &lines_[index] : nullptr;
    }

    /** State of @p line, widening the window to it if needed. */
    State&
    At(std::size_t line)
    {
        Cover(line, line);
        if (lines_.empty()) lines_.resize(count_);
        return lines_[line - first_];
    }

    /** Resets every line to its initial state; the range persists. */
    void
    Reset()
    {
        std::fill(lines_.begin(), lines_.end(), State{});
    }

  private:
    std::size_t first_ = 0;
    std::size_t count_ = 0;     ///< lines covered
    std::vector<State> lines_;  ///< empty until the first At()
};

/**
 * Entries interned by object address. Entries never move, so a
 * reference stays valid while other objects are added.
 */
template <typename Entry>
class ObjectTable {
  public:
    /** @p obj's entry, default-constructed on first use. */
    Entry&
    Of(const void* obj)
    {
        if (Entry* hit = Find(obj)) return *hit;
        Entry& entry = entries_.emplace_back();
        index_.emplace(obj, &entry);
        last_obj_ = obj;
        last_ = &entry;
        return entry;
    }

    /** @p obj's entry, or nullptr when it has none. */
    Entry*
    Find(const void* obj)
    {
        if (last_ != nullptr && obj == last_obj_) return last_;
        const auto it = index_.find(obj);
        if (it == index_.end()) return nullptr;
        last_obj_ = obj;
        last_ = it->second;
        return last_;
    }

    /** Calls @p fn on every entry. */
    template <typename Fn>
    void
    ForEach(Fn fn)
    {
        for (Entry& entry : entries_) fn(entry);
    }

  private:
    std::unordered_map<const void*, Entry*> index_;
    std::deque<Entry> entries_;
    const void* last_obj_ = nullptr;
    Entry* last_ = nullptr;
};

}  // namespace wave::check
