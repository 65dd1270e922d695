// O(1) NodeId -> Slot resolution for the round-engine hot path.
//
// Ctx::send resolves the destination ID (and re-checks every forwarded ID
// word) on every message, so this lookup sits on the innermost datapath.
// Two layouts:
//   - dense: when IDs are exactly 1..n in slot order (Config::random_ids ==
//     false, and any future contiguous assignment), find() is a subtraction;
//   - hashed: otherwise an open-addressing table with linear probing and a
//     Fibonacci multiply-shift hash, sized to a power of two at load factor
//     <= 1/4. Each 16-byte entry holds the full 64-bit NodeId next to its
//     slot, so a hit is one compare — no confirming load from the slot -> ID
//     array — and IDs that share their low bits can never be confused. The
//     low load factor keeps probe chains to about one entry.
// The table is built once at Network construction and never mutated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ncc/ids.h"

namespace dgr::ncc {

class IdMap {
 public:
  /// (Re)build from the slot -> ID table. IDs must be unique and non-zero.
  void build(const std::vector<NodeId>& ids) {
    n_ = ids.size();
    dense_ = true;
    for (std::size_t s = 0; s < n_; ++s) {
      if (ids[s] != static_cast<NodeId>(s + 1)) {
        dense_ = false;
        break;
      }
    }
    if (dense_) {
      table_.clear();
      shift_ = 64;
      return;
    }
    std::size_t cap = 16;
    shift_ = 60;
    while (cap < 4 * n_) {
      cap <<= 1;
      --shift_;
    }
    table_.assign(cap, Entry{kNoNode, kNoSlot});
    const std::size_t mask = cap - 1;
    for (std::size_t s = 0; s < n_; ++s) {
      std::size_t h = probe_start(ids[s]);
      while (table_[h].id != kNoNode) h = (h + 1) & mask;
      table_[h] = {ids[s], static_cast<Slot>(s)};
    }
  }

  /// Slot holding `id`, or kNoSlot when no node has that ID (kNoNode
  /// included: it wraps past n in the dense layout, and in the hashed one
  /// it matches the first empty entry, whose slot is kNoSlot).
  Slot find(NodeId id) const {
    if (dense_) {
      const NodeId i = id - 1;
      return i < n_ ? static_cast<Slot>(i) : kNoSlot;
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t h = probe_start(id);
    for (;;) {
      const Entry& e = table_[h];
      if (e.id == id || e.id == kNoNode) return e.slot;
      h = (h + 1) & mask;
    }
  }

 private:
  // kNoNode in `id` marks an empty entry (its slot is kNoSlot).
  struct Entry {
    NodeId id;
    Slot slot;
  };

  std::size_t probe_start(NodeId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::size_t n_ = 0;
  bool dense_ = true;
  unsigned shift_ = 64;  // 64 - log2(table size)
  std::vector<Entry> table_;
};

}  // namespace dgr::ncc
