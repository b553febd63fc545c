// Deterministic skiplist used by the memtable.
//
// Keys are byte strings ordered lexicographically; values are opaque.
// Duplicate keys are allowed (callers append a sequence suffix); insert
// places a key before any equal keys already stored, so equal keys sit
// adjacent, newest first.
//
// Nodes live in a bump arena: one allocation holds the node, its next
// pointers, and a copy of the key bytes. Nothing is freed individually —
// the memtable drops the whole list at flush — so insert does zero
// per-node heap allocations beyond the amortised arena block.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/rng.h"

namespace deepnote::storage::kvdb {

template <typename Value, typename Less = std::less<std::string_view>>
class SkipList {
 public:
  /// A stored entry. Nodes never move, so a pointer to one stays valid for
  /// the list's lifetime.
  struct Node {
    Value value;
    Node** next = nullptr;        // `height` pointers, in the same arena block
    const char* key_data = nullptr;
    std::uint32_t key_len = 0;
    std::string_view key() const { return {key_data, key_len}; }
  };

  explicit SkipList(std::uint64_t seed = 0x5eedull, Less less = Less{})
      : rng_(seed), less_(less) {
    head_ = make_node({}, Value{}, kMaxHeight);
    rightmost_.fill(head_);
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  ~SkipList() {
    // Arena blocks free the storage; only the non-trivial members (Value,
    // and nothing else) need their destructors run, via the level-0 chain.
    Node* x = head_;
    while (x != nullptr) {
      Node* next = x->next[0];
      x->~Node();
      x = next;
    }
  }

  /// Inserts and returns the new node.
  const Node* insert(std::string_view key, Value value) {
    std::array<Node*, kMaxHeight> prev;
    if (tail_ != nullptr && less_(tail_->key(), key)) {
      // Append fast path: the key is strictly greater than every stored
      // key, so the predecessor at each level is the rightmost node there
      // — no walk needed. Equal keys never take this branch, preserving
      // insertion-order adjacency of duplicates.
      prev = rightmost_;
    } else {
      Node* x = find_greater_or_equal(key, &prev);
      (void)x;
      for (int i = height_; i < kMaxHeight; ++i) prev[i] = head_;
    }
    const int height = random_height();
    if (height > height_) height_ = height;
    Node* raw = make_node(key, std::move(value), height);
    for (int i = 0; i < height; ++i) {
      raw->next[i] = prev[i]->next[i];
      prev[i]->next[i] = raw;
      if (raw->next[i] == nullptr) rightmost_[i] = raw;
    }
    if (raw->next[0] == nullptr) tail_ = raw;
    ++size_;
    return raw;
  }

  /// First node with node.key >= key, nullptr if none. The memtable's
  /// point reads go through its hash index instead; tests use this seek as
  /// the reference for that index.
  const Value* find_first_at_least(std::string_view key,
                                   std::string_view* found_key = nullptr)
      const {
    Node* x = find_greater_or_equal(key, nullptr);
    if (!x) return nullptr;
    if (found_key) *found_key = x->key();
    return &x->value;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// First node in order (nullptr when empty); walk on with next[0].
  const Node* front() const { return head_->next[0]; }

  /// In-order traversal.
  void for_each(const std::function<void(std::string_view, const Value&)>&
                    fn) const {
    for (Node* x = head_->next[0]; x != nullptr; x = x->next[0]) {
      fn(x->key(), x->value);
    }
  }

 private:
  static constexpr int kMaxHeight = 12;

  static constexpr std::size_t kArenaBlock = std::size_t{1} << 16;

  char* arena_alloc(std::size_t bytes) {
    bytes = (bytes + 7) & ~std::size_t{7};
    if (bytes > arena_left_) {
      const std::size_t block = bytes > kArenaBlock ? bytes : kArenaBlock;
      arena_.push_back(std::make_unique<char[]>(block));
      arena_ptr_ = arena_.back().get();
      arena_left_ = block;
    }
    char* p = arena_ptr_;
    arena_ptr_ += bytes;
    arena_left_ -= bytes;
    return p;
  }

  Node* make_node(std::string_view key, Value value, int height) {
    const std::size_t node_sz = (sizeof(Node) + 7) & ~std::size_t{7};
    const std::size_t ptr_sz =
        sizeof(Node*) * static_cast<std::size_t>(height);
    char* mem = arena_alloc(node_sz + ptr_sz + key.size());
    Node* n = new (mem) Node;
    n->value = std::move(value);
    n->next = reinterpret_cast<Node**>(mem + node_sz);
    std::fill(n->next, n->next + height, nullptr);
    char* kd = mem + node_sz + ptr_sz;
    if (!key.empty()) std::memcpy(kd, key.data(), key.size());
    n->key_data = kd;
    n->key_len = static_cast<std::uint32_t>(key.size());
    return n;
  }

  int random_height() {
    int h = 1;
    while (h < kMaxHeight && (rng_.next_u64() & 3u) == 0) ++h;  // p = 1/4
    return h;
  }

  Node* find_greater_or_equal(std::string_view key,
                              std::array<Node*, kMaxHeight>* prev) const {
    Node* x = head_;
    int level = height_ - 1;
    while (true) {
      Node* next = x->next[static_cast<std::size_t>(level)];
      if (next != nullptr && less_(next->key(), key)) {
        x = next;
      } else {
        if (prev) (*prev)[static_cast<std::size_t>(level)] = x;
        if (level == 0) return next;
        --level;
      }
    }
  }

  mutable sim::Rng rng_;
  Less less_;
  Node* head_ = nullptr;
  std::vector<std::unique_ptr<char[]>> arena_;
  char* arena_ptr_ = nullptr;
  std::size_t arena_left_ = 0;
  int height_ = 1;
  std::size_t size_ = 0;
  // Append fast-path state: rightmost node per level (head when the level
  // is empty) and the overall last node. Sequential inserts — the fillseq
  // hot path, and the common case with sequence-suffixed internal keys —
  // skip the O(log n) walk entirely.
  std::array<Node*, kMaxHeight> rightmost_{};
  Node* tail_ = nullptr;
};

}  // namespace deepnote::storage::kvdb
