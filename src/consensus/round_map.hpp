// Per-round protocol state of one consensus instance, keyed by round.
//
// An instance touches a handful of rounds, so the entries sit in one flat
// vector and lookups scan it. clear() keeps the entries constructed: a
// recycled instance (see InstanceStream::on_reset) fills them again by
// copy-assignment, which keeps every nested vector's capacity, so a reused
// consensus layer records its rounds without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sanperf::consensus::detail {

template <typename T>
class RoundMap {
 public:
  /// The entry for `round`, or nullptr.
  [[nodiscard]] T* find(std::int32_t round) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (entries_[i].first == round) return &entries_[i].second;
    }
    return nullptr;
  }

  /// The entry for `round`, created value-initialised when absent.
  T& operator[](std::int32_t round) { return emplace(round).first; }

  /// The entry for `round` and whether it was just created (value-
  /// initialised); an existing entry is left as it is.
  std::pair<T&, bool> emplace(std::int32_t round) {
    if (T* found = find(round)) return {*found, false};
    if (size_ == entries_.size()) {
      entries_.emplace_back(round, T{});
    } else {
      entries_[size_].first = round;
      entries_[size_].second = empty();  // copy-assign: keeps capacity
    }
    return {entries_[size_++].second, true};
  }

  /// Removes the entry for `round`, if any (entry order is not kept).
  void erase(std::int32_t round) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (entries_[i].first != round) continue;
      std::swap(entries_[i], entries_[size_ - 1]);
      --size_;
      return;
    }
  }

  /// Forgets every entry; their storage stays for the next rounds.
  void clear() { size_ = 0; }

 private:
  static const T& empty() {
    static const T value{};
    return value;
  }

  std::vector<std::pair<std::int32_t, T>> entries_;
  std::size_t size_ = 0;  ///< live entries: entries_[0, size_)
};

}  // namespace sanperf::consensus::detail
