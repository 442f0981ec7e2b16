#ifndef TCOMP_UTIL_DENSE_BITSET_H_
#define TCOMP_UTIL_DENSE_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcomp {

/// Mirrors core/types.h (BitsetId = uint32_t, BitsetIdVector = sorted
/// vector<ObjectId>) without a util → core include.
using BitsetId = uint32_t;
using BitsetIdVector = std::vector<uint32_t>;

/// Membership bitset over a dense BitsetId universe.
///
/// BU's I-step probes every candidate's loose objects against every
/// cluster's loose objects. When the id universe is dense (the generators
/// and readers number objects from 0), a bitset sized to the snapshot's
/// maximum id turns each membership test into a single bit probe, while
/// staying identical in results to the merge path in util/sorted_ops.h
/// (enforced by differential tests).
///
/// Ids at or beyond `universe()` are treated as "not representable":
/// Test() reports them absent and the sparse helpers skip them. Hybrid
/// loops rely on this — a candidate may retain ids that left the current
/// snapshot, and those can never match any cluster of the snapshot.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t universe) { Resize(universe); }

  /// Resizes to cover ids [0, universe) and clears every bit.
  void Resize(size_t universe);

  /// Number of representable ids (bits).
  size_t universe() const { return universe_; }

  /// True if `id` is in the set. Ids outside the universe are absent.
  bool Test(BitsetId id) const {
    if (static_cast<size_t>(id) >= universe_) return false;
    return (words_[id >> 6] >> (id & 63)) & 1u;
  }

  /// Inserts every id of sorted `ids` that fits the universe.
  void SetSparse(const BitsetIdVector& ids);

  /// Population count.
  size_t Count() const;

 private:
  std::vector<uint64_t> words_;
  size_t universe_ = 0;
};

/// out = {x ∈ sorted `a` : x ∈ bits}. Preserves order, reuses `out`'s
/// capacity; `out` must not alias `a`. Identical to SortedIntersect of
/// `a` with the set's members.
void IntersectInto(const BitsetIdVector& a, const DenseBitset& bits,
                   BitsetIdVector* out);

/// True if any element of sorted `a` is in `bits`.
bool IntersectsWith(const BitsetIdVector& a, const DenseBitset& bits);

// --- Kernel selection -----------------------------------------------------

/// Density heuristic: true if a structure indexed by id over
/// [0, universe) is worth building for a set population of `set_bits`
/// ids. It gates BU's membership bitsets and the id → label table of
/// CI, SC and convoy (util/label_rows.h). Requires the id space to be
/// dense enough that bitset words carry ≥1 member on average — at most
/// 64 slots per member, so 256 bytes of label table (sparse id spaces —
/// e.g. raw device ids from a file — would waste cache and zeroing
/// time) — and caps the universe so a hostile id can't provoke a huge
/// allocation. See DESIGN.md §1.6b.
inline constexpr uint64_t kMaxBitsetUniverse = uint64_t{1} << 24;  // 16.7M
inline bool BitsetProfitable(uint64_t universe, size_t set_bits) {
  return universe > 0 && universe <= kMaxBitsetUniverse &&
         universe <= uint64_t{set_bits} * 64;
}

}  // namespace tcomp

#endif  // TCOMP_UTIL_DENSE_BITSET_H_
