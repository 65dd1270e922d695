// Per-node ID-knowledge tracking (the KT0/KT1 distinction).
//
// A node may address a message to v only if it knows v's ID. Knowledge grows
// monotonically: initial knowledge, sender IDs of delivered messages, and ID
// words carried in payloads.
//
// Representation: a sparse-to-dense hybrid keyed by the simulator's Slot
// (the Network translates NodeId <-> Slot with its O(1) IdMap). Most nodes
// in the NCC protocols only ever learn O(log n) IDs (path neighbours, level
// links, skip links, sort partners), so knowledge starts as a small
// open-addressing slot table — 256 bytes per node (kMinCap entries)
// instead of the n/8-byte bitset, which at n = 64Ki kept a 512MB working
// set and made every delivery-time learn a DRAM miss. A node whose table would outgrow the
// bitset is promoted to the dense form (growth is the cold path, out of
// line in knowledge.cpp). The population count is maintained incrementally,
// so size() stays O(1) and the referee's max_knowledge()/total_knowledge()
// accounting is a linear scan of counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ncc/ids.h"

namespace dgr::ncc {

class Knowledge {
 public:
  /// Size for an n-node network; forgets everything known.
  void init(std::size_t n) {
    n_ = n;
    all_ = false;
    dense_ = false;
    known_ = 0;
    hot_id_ = kNoNode;
    hot_slot_ = kNoSlot;
    sent_id_ = kNoNode;
    sent_slot_ = kNoSlot;
    tab_.assign(initial_cap(n), kEmpty);
    words_.clear();
    words_.shrink_to_fit();
  }

  /// NCC1: knows every ID; the set is not materialized.
  void set_all() {
    all_ = true;
    known_ = 0;
    tab_.clear();
    tab_.shrink_to_fit();
    words_.clear();
    words_.shrink_to_fit();
  }

  bool knows_all() const { return all_; }

  bool knows_slot(Slot s) const {
    if (all_) return true;
    if (dense_) return ((words_[s >> 6] >> (s & 63)) & 1u) != 0;
    const std::size_t mask = tab_.size() - 1;
    std::size_t i = probe_start(s, mask);
    for (;;) {
      const std::uint32_t v = tab_[i];
      if (v == s) return true;
      if (v == kEmpty) return false;
      i = (i + 1) & mask;
    }
  }

  void learn_slot(Slot s) {
    if (all_) return;
    if (dense_) {
      std::uint64_t& w = words_[s >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      known_ += static_cast<std::size_t>((w & bit) == 0);
      w |= bit;
      return;
    }
    const std::size_t mask = tab_.size() - 1;
    std::size_t i = probe_start(s, mask);
    for (;;) {
      const std::uint32_t v = tab_[i];
      if (v == s) return;
      if (v == kEmpty) break;
      i = (i + 1) & mask;
    }
    tab_[i] = s;
    ++known_;
    // Keep the load factor under 1/2; growth may promote to the bitset.
    if (known_ * 2 >= tab_.size()) grow();
  }

  /// Batched learn over the contiguous ID-slot trailer of one wire record
  /// (the delivery-side learn pass runs dest-major over these). Hoists the
  /// representation dispatch out of the per-slot loop, so the dense form is
  /// a tight load-or-store loop over sequential trailer words — the shape
  /// the compiler can unroll — instead of a branchy call per slot.
  void learn_trailer(const std::uint64_t* slots, std::size_t cnt) {
    if (all_ || cnt == 0) return;
    if (dense_) {
      // Unrolled 4-wide: four independent loads of the trailer words per
      // iteration, with the read-modify-write of the bitset kept in
      // program order (two trailer slots may land in the same bitset
      // word, so the |= chain and the gained count must stay sequential —
      // the unroll buys ILP on the loads and the bit math, not a
      // reassociation).
      std::uint64_t* const words = words_.data();
      std::size_t gained = 0;
      std::size_t i = 0;
      for (; i + 4 <= cnt; i += 4) {
        const auto s0 = static_cast<Slot>(slots[i]);
        const auto s1 = static_cast<Slot>(slots[i + 1]);
        const auto s2 = static_cast<Slot>(slots[i + 2]);
        const auto s3 = static_cast<Slot>(slots[i + 3]);
        const std::uint64_t b0 = std::uint64_t{1} << (s0 & 63);
        const std::uint64_t b1 = std::uint64_t{1} << (s1 & 63);
        const std::uint64_t b2 = std::uint64_t{1} << (s2 & 63);
        const std::uint64_t b3 = std::uint64_t{1} << (s3 & 63);
        std::uint64_t& w0 = words[s0 >> 6];
        gained += static_cast<std::size_t>((w0 & b0) == 0);
        w0 |= b0;
        std::uint64_t& w1 = words[s1 >> 6];
        gained += static_cast<std::size_t>((w1 & b1) == 0);
        w1 |= b1;
        std::uint64_t& w2 = words[s2 >> 6];
        gained += static_cast<std::size_t>((w2 & b2) == 0);
        w2 |= b2;
        std::uint64_t& w3 = words[s3 >> 6];
        gained += static_cast<std::size_t>((w3 & b3) == 0);
        w3 |= b3;
      }
      for (; i < cnt; ++i) {
        const auto s = static_cast<Slot>(slots[i]);
        std::uint64_t& w = words[s >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (s & 63);
        gained += static_cast<std::size_t>((w & bit) == 0);
        w |= bit;
      }
      known_ += gained;
      return;
    }
    // Sparse: learn_slot handles growth, which may promote to the dense
    // form mid-batch — it re-dispatches per call, so that is safe.
    for (std::size_t i = 0; i < cnt; ++i)
      learn_slot(static_cast<Slot>(slots[i]));
  }

  /// Number of distinct IDs known; n must be supplied for the NCC1 case.
  std::size_t size(std::size_t n) const { return all_ ? n : known_; }

  /// Two-entry positive cache over (ID, slot) pairs. Knowledge grows
  /// monotonically and IDs are unique, so "this ID was once verified known
  /// / once learned, and it lives in this slot" can never go stale —
  /// callers use it to skip the NodeId -> Slot resolution plus the table
  /// probe for the common case of the same ID being re-verified round
  /// after round (a sort record forwarded through consecutive stages, a
  /// broadcast value re-flooded). The entries have one writer each: the
  /// delivery-side learn pass refreshes the learned entry (set_hot) with
  /// the ID just received, and the send-side check refreshes the verified
  /// entry (set_sent) with the ID just forwarded — so a node that kept its
  /// own record through a compare-exchange still hits on the next stage.
  /// Mutable: it is a cache, updated from const verification paths; each
  /// node's knowledge is only ever touched by the worker that owns the
  /// slot (or by the delivery pass, between rounds), so there is no race.
  Slot cached_slot(NodeId id) const {
    if (id == hot_id_) return hot_slot_;
    if (id == sent_id_) return sent_slot_;
    return kNoSlot;
  }
  void set_hot(NodeId id, Slot s) const {
    hot_id_ = id;
    hot_slot_ = s;
  }
  void set_sent(NodeId id, Slot s) const {
    sent_id_ = id;
    sent_slot_ = s;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;  // > any valid Slot
  // 64 entries (256B/node) from the start: the overlay-construction
  // protocols teach a node ~2 log n IDs, and starting smaller made the
  // engine spend measurable time rehashing tables mid-simulation.
  static constexpr std::size_t kMinCap = 64;
  // ...except at huge n, where the eager tables dominate setup RSS (256MB
  // before any message moves at n = 10^6). There bootstrap at 16 entries
  // and let the cold grow path carry a node to 64 by its ~8th learned ID:
  // a couple of extra rehashes per node that actually learns, invisible
  // next to the protocol's own work, and transcript-neutral — table
  // geometry is not observable (membership, size, and learn semantics are
  // identical).
  static constexpr std::size_t kMinCapHuge = 16;
  static constexpr std::size_t kHugeN = std::size_t{1} << 18;

  static std::size_t initial_cap(std::size_t n) {
    return n >= kHugeN ? kMinCapHuge : kMinCap;
  }

  static std::size_t probe_start(Slot s, std::size_t mask) {
    return (static_cast<std::uint32_t>(s) * 2654435761u) & mask;
  }

  /// Cold path: double the table, or promote to the dense bitset once the
  /// doubled table would cost at least as much memory.
  void grow();

  bool all_ = false;
  bool dense_ = false;
  std::size_t known_ = 0;
  std::size_t n_ = 0;
  // See cached_slot(). Empty entries hold (kNoNode, kNoSlot), so a lookup
  // of kNoNode misses.
  mutable NodeId hot_id_ = kNoNode;   // learned entry
  mutable Slot hot_slot_ = kNoSlot;
  mutable NodeId sent_id_ = kNoNode;  // send-side verified entry
  mutable Slot sent_slot_ = kNoSlot;
  std::vector<std::uint32_t> tab_;    // sparse: open-addressing slot table
  std::vector<std::uint64_t> words_;  // dense: bit s => knows slot s
};

}  // namespace dgr::ncc
