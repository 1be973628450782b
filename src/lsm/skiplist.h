// Skiplist used by the memtable: ordered insertion and lookup in O(log n)
// expected time. Header-only template, deterministic given its seed.
//
// Single-threaded by construction (the coroutine runtime interleaves
// cooperatively and memtable operations never suspend), so no atomics.

#ifndef LIBRA_SRC_LSM_SKIPLIST_H_
#define LIBRA_SRC_LSM_SKIPLIST_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace libra::lsm {

// Comparator returns <0/0/>0. Keys are stored by value.
template <typename Key, typename Comparator>
class SkipList {
 public:
  static constexpr int kMaxHeight = 12;

  explicit SkipList(Comparator cmp, uint64_t seed = 0xDEADBEEF)
      : cmp_(cmp), rng_state_(seed | 1), head_(NewNode(Key(), kMaxHeight)) {}

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  ~SkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0];
      n->~Node();
      ::operator delete(n);
      n = next;
    }
  }

  // Inserts `key`, moving it into its node; duplicate keys (comparator ==
  // 0) are rejected (callers make keys unique via the sequence number).
  bool Insert(Key key) {
    std::array<Node*, kMaxHeight> prev;
    Node* x = FindGreaterOrEqual(key, &prev);
    if (x != nullptr && cmp_(x->key, key) == 0) {
      return false;
    }
    const int height = RandomHeight();
    if (height > height_) {
      for (int i = height_; i < height; ++i) {
        prev[i] = head_;
      }
      height_ = height;
    }
    Node* node = NewNode(std::move(key), height);
    for (int i = 0; i < height; ++i) {
      node->next[i] = prev[i]->next[i];
      prev[i]->next[i] = node;
    }
    ++size_;
    return true;
  }

  bool Contains(const Key& key) const {
    const Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && cmp_(x->key, key) == 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Forward iterator over keys in comparator order.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->next[0];
    }
    void SeekToFirst() { node_ = list_->head_->next[0]; }
    // Positions at the first key >= target.
    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_;
  };

 private:
  struct Node {
    Key key;
    int height;
    Node* next[1];  // over-allocated to `height`
  };

  static Node* NewNode(Key key, int height) {
    void* mem = ::operator new(sizeof(Node) + sizeof(Node*) * (height - 1));
    Node* n = new (mem) Node{std::move(key), height, {nullptr}};
    for (int i = 0; i < height; ++i) {
      n->next[i] = nullptr;
    }
    return n;
  }

  int RandomHeight() {
    // xorshift64*; P(height = h) = 4^-(h-1).
    int height = 1;
    while (height < kMaxHeight) {
      rng_state_ ^= rng_state_ >> 12;
      rng_state_ ^= rng_state_ << 25;
      rng_state_ ^= rng_state_ >> 27;
      if ((rng_state_ * 0x2545F4914F6CDD1DULL >> 62) != 0) {
        break;
      }
      ++height;
    }
    return height;
  }

  // First node >= key; fills prev[] with the rightmost nodes < key per
  // level when non-null.
  Node* FindGreaterOrEqual(const Key& key,
                           std::array<Node*, kMaxHeight>* prev) const {
    Node* x = head_;
    int level = height_ - 1;
    while (true) {
      Node* next = x->next[level];
      if (next != nullptr && cmp_(next->key, key) < 0) {
        x = next;
        continue;
      }
      if (prev != nullptr) {
        (*prev)[level] = x;
      }
      if (level == 0) {
        return next;
      }
      --level;
    }
  }

  Comparator cmp_;
  uint64_t rng_state_;
  Node* head_;
  int height_ = 1;
  size_t size_ = 0;

  friend class Iterator;
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_SKIPLIST_H_
