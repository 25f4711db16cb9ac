// Parallel replication engine.
//
// Every campaign in this codebase is a set of independent replications,
// each fully determined by (master seed, replication index). The
// ReplicationRunner fans those indices out across a persistent thread pool
// and the caller folds the per-index results back together IN INDEX ORDER,
// so merged statistics are bit-identical regardless of thread count or
// scheduling order. One thread (or SANPERF_THREADS=1) degenerates to the
// plain sequential loop.
//
// map and run_flat hand each worker one WorkerScratch for the whole batch
// when the task function takes it as a second argument, so tasks reuse a
// one-shot rig or a SAN simulator instead of building one each. The worker
// index picks the scratch slot only and never reaches a seed: a task's
// result is the same whichever worker runs it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/worker_scratch.hpp"
#include "des/random.hpp"
#include "san/study.hpp"

namespace sanperf::core {

/// The flattened (grid-point x replication) index space of a campaign.
///
/// A campaign driver sweeps a parameter grid and runs many replications per
/// grid point. Fanning out only the inner replication loop leaves the outer
/// sweep sequential; a ShardSpace instead enumerates every (group,
/// replication) pair as one flat task list, so a single runner batch covers
/// the whole campaign. Each task carries its own seed from the group's
/// SeedSplitter: results are pure in the task, independent of scheduling,
/// and fold back deterministically in index order.
class ShardSpace {
 public:
  struct Task {
    std::size_t group = 0;   ///< grid-point index, in add_group() order
    std::size_t index = 0;   ///< replication index within the group
    std::uint64_t seed = 0;  ///< SeedSplitter{group seed, label}.stream_seed(index)
  };

  /// Appends a group of `count` tasks seeded from SeedSplitter{seed, label}.
  /// Returns the group id (consecutive from 0).
  std::size_t add_group(std::size_t count, std::uint64_t seed, std::string_view label = "rep") {
    groups_.push_back(Group{total_, count, des::SeedSplitter{seed, label}});
    total_ += count;
    return groups_.size() - 1;
  }

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t group_size(std::size_t group) const { return groups_[group].count; }
  /// Total number of tasks across all groups.
  [[nodiscard]] std::size_t size() const { return total_; }

  /// Decodes a flat index in [0, size()) into its task.
  [[nodiscard]] Task task(std::size_t flat) const {
    // Groups are few (a parameter grid): a linear scan beats binary search
    // on these sizes and keeps the structure trivially copyable.
    std::size_t g = 0;
    while (g + 1 < groups_.size() && groups_[g + 1].offset <= flat) ++g;
    const Group& group = groups_[g];
    Task t;
    t.group = g;
    t.index = flat - group.offset;
    t.seed = group.seeds.stream_seed(t.index);
    return t;
  }

 private:
  struct Group {
    std::size_t offset;
    std::size_t count;
    des::SeedSplitter seeds;
  };
  std::vector<Group> groups_;
  std::size_t total_ = 0;
};

class ReplicationRunner {
 public:
  /// `threads == 0` resolves to the hardware concurrency.
  explicit ReplicationRunner(std::size_t threads = 0);
  ~ReplicationRunner();

  ReplicationRunner(const ReplicationRunner&) = delete;
  ReplicationRunner& operator=(const ReplicationRunner&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, count), distributed over the pool; the
  /// calling thread participates. Blocks until every index has finished.
  /// The first exception thrown by fn is rethrown here. Calls issued from
  /// inside a running batch (nested parallelism) execute inline on the
  /// current thread, so replication bodies may themselves use the runner.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// for_each that also passes fn the index of the worker running the call:
  /// 0 for the calling thread, 1 .. threads() - 1 for the pool (always 0
  /// when the batch runs inline). A worker runs one call at a time, so
  /// storage indexed by it needs no lock. Which worker runs an index
  /// depends on scheduling: the worker index must not affect results.
  void for_each_worker(std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn) const;

  /// for_each with results collected in index order. fn's result type must
  /// be default-constructible. fn is called as fn(i), or as fn(i, scratch)
  /// with the running worker's WorkerScratch when it accepts that.
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t count, Fn&& fn) const {
    using R = task_result_t<Fn, std::size_t>;
    static_assert(std::is_default_constructible_v<R>,
                  "ReplicationRunner::map requires a default-constructible result");
    static_assert(!std::is_same_v<R, bool>,
                  "ReplicationRunner::map cannot return bool: std::vector<bool> packs bits, "
                  "so concurrent out[i] writes race; return char/int instead");
    std::vector<R> out(count);
    std::vector<WorkerScratch> scratch(threads_);
    for_each_worker(count, [&](std::size_t i, std::size_t w) {
      out[i] = invoke_task(fn, i, scratch[w]);
    });
    return out;
  }

  /// Runs fn(task) for every task of the flattened campaign space in one
  /// batch -- grid points and replications fan out together, so a sweep
  /// with many small groups saturates the pool just as well as one large
  /// group. Results come back grouped, in index order within each group:
  /// folding them sequentially reproduces the sequential campaign bit for
  /// bit at any thread count. fn is called as fn(task) or, when it accepts
  /// one, fn(task, scratch) with the running worker's WorkerScratch.
  template <typename Fn>
  [[nodiscard]] auto run_flat(const ShardSpace& space, Fn&& fn) const {
    using R = task_result_t<Fn, const ShardSpace::Task&>;
    static_assert(std::is_default_constructible_v<R>,
                  "ReplicationRunner::run_flat requires a default-constructible result");
    std::vector<std::vector<R>> out(space.group_count());
    for (std::size_t g = 0; g < space.group_count(); ++g) out[g].resize(space.group_size(g));
    std::vector<WorkerScratch> scratch(threads_);
    for_each_worker(space.size(), [&](std::size_t i, std::size_t w) {
      const ShardSpace::Task t = space.task(i);
      out[t.group][t.index] = invoke_task(fn, t, scratch[w]);
    });
    return out;
  }

 private:
  /// What fn returns for `Arg`, called with or without a WorkerScratch.
  template <typename Fn, typename Arg>
  using task_result_t =
      typename std::conditional_t<std::is_invocable_v<Fn&, Arg, WorkerScratch&>,
                                  std::invoke_result<Fn&, Arg, WorkerScratch&>,
                                  std::invoke_result<Fn&, Arg>>::type;

  template <typename Fn, typename Arg>
  static decltype(auto) invoke_task(Fn& fn, const Arg& arg, WorkerScratch& scratch) {
    if constexpr (std::is_invocable_v<Fn&, const Arg&, WorkerScratch&>) {
      return fn(arg, scratch);
    } else {
      return fn(arg);
    }
  }

  struct Batch {
    Batch(const std::function<void(std::size_t, std::size_t)>& f, std::size_t c)
        : fn{&f}, count{c} {}
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::exception_ptr error;  ///< first failure; guarded by the runner mutex
  };

  void worker_loop(std::size_t worker);
  void drain(Batch& batch, std::size_t worker) const;

  std::size_t threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  mutable std::condition_variable wake_;
  mutable std::condition_variable done_;
  mutable std::shared_ptr<Batch> batch_;
  mutable std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Process-wide runner shared by the experiment drivers. Thread count comes
/// from SANPERF_THREADS (unset or 0 means hardware concurrency).
[[nodiscard]] const ReplicationRunner& default_runner();

/// Pairwise (tree) reduction of mergeable shards: merge(a, b) folds shard b
/// into shard a. Each level merges adjacent pairs -- through `runner` when
/// given, since pairs are independent -- so high replication counts reduce
/// in O(log n) sequential depth instead of one long caller-thread fold.
/// The tree shape is fixed by the shard count alone, so the result is
/// deterministic for any thread count; for associative merges (Ecdf sample
/// pooling, Histogram counts, vector concatenation, MeasuredLatency
/// appends) it is bit-identical to the sequential left fold.
template <typename T, typename Merge>
[[nodiscard]] T tree_merge(std::vector<T> shards, Merge&& merge,
                           const ReplicationRunner* runner = nullptr) {
  if (shards.empty()) {
    if constexpr (std::is_default_constructible_v<T>) {
      return T{};
    } else {
      throw std::invalid_argument{"tree_merge: no shards"};
    }
  }
  std::size_t live = shards.size();
  while (live > 1) {
    const std::size_t pairs = live / 2;
    if (runner != nullptr && pairs > 1) {
      runner->for_each(pairs, [&](std::size_t p) { merge(shards[2 * p], shards[2 * p + 1]); });
    } else {
      for (std::size_t p = 0; p < pairs; ++p) merge(shards[2 * p], shards[2 * p + 1]);
    }
    // Survivors sit at even indices; a trailing odd shard rides along.
    // (Guard against self-move: shards[0] always survives in place.)
    std::size_t w = 0;
    for (std::size_t r = 0; r < live; r += 2, ++w) {
      if (w != r) shards[w] = std::move(shards[r]);
    }
    live = w;
  }
  return std::move(shards.front());
}

/// Folds per-replication rewards (nullopt = dropped) in index order into a
/// StudyResult: the exact sequence of add() calls the sequential loop makes.
[[nodiscard]] san::StudyResult fold_study_rewards(
    const std::vector<std::optional<double>>& rewards, double confidence = 0.90);

/// Runs a transient study's replications through `runner` and merges the
/// per-replication rewards in index order: the result is bit-identical to
/// san::TransientStudy::run for every thread count.
[[nodiscard]] san::StudyResult run_study(const ReplicationRunner& runner,
                                         const san::TransientStudy& study,
                                         std::size_t replications, std::uint64_t seed,
                                         double confidence = 0.90);

}  // namespace sanperf::core
