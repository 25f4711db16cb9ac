// A FIFO queue of fixed-size chunks that keeps storage for a set depth.
//
// std::deque frees a block each time its front crosses a block boundary and
// allocates one at the back, so a server queue that churns through frames
// allocates in steady state. This queue links chunks of kChunk elements the
// same way. On its first push (or keep_storage()) it allocates, in one go,
// the chunks covering the depth its owner expects (`keep`) and never frees
// them: a queue that stays within that depth allocates nothing after that,
// across a Cluster::reset too. Chunks a deeper burst needs are borrowed
// from the allocator and returned as soon as the front leaves them, so one
// burst does not pin memory for the rest of a run. (Keeping whatever chunks
// a queue ever grew to instead scatters long-lived chunks through the
// heap; on the routed stream benchmark that cost about 0.25 MB of peak RSS.)
#pragma once

#include <array>
#include <cstddef>
#include <utility>

namespace sanperf::net {

/// FIFO of default-constructible, move-assignable T. Popped and cleared
/// slots are overwritten with a default-constructed T, so their payloads
/// (e.g. an EventAction holding a frame reference) die at pop time.
template <typename T>
class ChunkQueue {
 public:
  static constexpr std::size_t kChunk = 4;

  /// Keeps storage for `keep` elements (at least one chunk).
  explicit ChunkQueue(std::size_t keep = kChunk)
      : kept_{keep == 0 ? 1 : (keep + kChunk - 1) / kChunk} {}
  ChunkQueue(ChunkQueue&& other) noexcept
      : kept_{other.kept_},
        kept_allocated_{std::exchange(other.kept_allocated_, false)},
        head_{std::exchange(other.head_, nullptr)},
        tail_{std::exchange(other.tail_, nullptr)},
        spare_{std::exchange(other.spare_, nullptr)},
        head_pos_{std::exchange(other.head_pos_, 0)},
        tail_pos_{std::exchange(other.tail_pos_, 0)},
        size_{std::exchange(other.size_, 0)} {}
  ChunkQueue(const ChunkQueue&) = delete;
  ChunkQueue& operator=(const ChunkQueue&) = delete;
  ChunkQueue& operator=(ChunkQueue&&) = delete;
  ~ChunkQueue() {
    clear();
    free_chain(head_);
    free_chain(spare_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(T&& v) {
    if (tail_ == nullptr) {
      keep_storage();
      head_ = tail_ = take_chunk();
    } else if (tail_pos_ == kChunk) {
      tail_->next = take_chunk();
      tail_ = tail_->next;
      tail_pos_ = 0;
    }
    tail_->slots[tail_pos_++] = std::move(v);
    ++size_;
  }

  /// The oldest element. Requires !empty().
  [[nodiscard]] T& front() { return head_->slots[head_pos_]; }

  /// Removes the oldest element. Requires !empty().
  void pop_front() {
    head_->slots[head_pos_++] = T{};
    if (--size_ == 0) {
      // Rewind in place: the chunk left in use serves the next burst.
      head_pos_ = 0;
      tail_pos_ = 0;
    } else if (head_pos_ == kChunk) {
      Chunk* done = head_;
      head_ = head_->next;
      head_pos_ = 0;
      if (done->owned) {
        done->next = spare_;
        spare_ = done;
      } else {
        delete done;
      }
    }
  }

  /// The i-th oldest element, i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    const Chunk* c = head_;
    i += head_pos_;
    for (; i >= kChunk; i -= kChunk) c = c->next;
    return c->slots[i];
  }

  /// Drops every element; the chunks stay for later use.
  void clear() {
    while (size_ > 0) pop_front();
  }

  /// Allocates the kept chunks now if no push has yet. Owners call it when
  /// they are reset for reuse, so that a reused queue never allocates them
  /// mid-run; an owner that is never reset pays for them on first use only
  /// (the hub of a routed network, say, never does).
  void keep_storage() {
    if (kept_allocated_) return;
    kept_allocated_ = true;
    for (std::size_t i = 0; i < kept_; ++i) {
      Chunk* c = new Chunk;
      c->owned = true;
      c->next = spare_;
      spare_ = c;
    }
  }

 private:
  struct Chunk {
    std::array<T, kChunk> slots{};
    Chunk* next = nullptr;
    bool owned = false;
  };

  Chunk* take_chunk() {
    if (spare_ == nullptr) return new Chunk;
    Chunk* c = spare_;
    spare_ = c->next;
    c->next = nullptr;
    return c;
  }

  static void free_chain(Chunk* c) {
    while (c != nullptr) delete std::exchange(c, c->next);
  }

  std::size_t kept_;       ///< chunks allocated once and never freed
  bool kept_allocated_ = false;
  Chunk* head_ = nullptr;  ///< oldest chunk in use
  Chunk* tail_ = nullptr;  ///< newest chunk in use (== head_ with one in use)
  Chunk* spare_ = nullptr;  ///< kept chunks not in use
  std::size_t head_pos_ = 0;
  std::size_t tail_pos_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sanperf::net
