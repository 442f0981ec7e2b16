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

/// Word-parallel set algebra over a dense BitsetId universe.
///
/// The discovery inner loops intersect, subtract, and subset-test sorted
/// `ObjectSet` vectors billions of times per stream — the paper's own cost
/// model counts exactly these "intersection times". When the id universe
/// is dense (the generators and readers number objects from 0), a bitset
/// sized to the snapshot's maximum id turns each element operation into a
/// single bit probe and each whole-set operation into a 64-way-parallel
/// word loop, while staying bit-identical in results to the merge path in
/// util/sorted_ops.h (enforced by differential tests).
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

  /// Inserts `id`; must be inside the universe.
  void Set(BitsetId id);
  /// Removes `id`; must be inside the universe.
  void Clear(BitsetId id);

  /// Removes every bit.
  void ClearAll();

  /// Inserts every id of sorted `ids` that fits the universe.
  void SetSparse(const BitsetIdVector& ids);
  /// Removes every id of sorted `ids` that fits the universe. Clearing an
  /// absent id is a no-op, so callers can clear a superset to reset.
  void ClearSparse(const BitsetIdVector& ids);

  /// Clears, then inserts every element of sorted `ids` that fits.
  void AssignSorted(const BitsetIdVector& ids);

  /// Population count.
  size_t Count() const;

  // --- Word-parallel kernels. Universes may differ: bits beyond either
  // operand's universe are treated as zero. ---

  /// this &= other.
  void IntersectWith(const DenseBitset& other);
  /// this |= other (grows the universe to cover `other` if needed).
  void UnionWith(const DenseBitset& other);
  /// this &= ~other.
  void SubtractWith(const DenseBitset& other);
  /// True if every bit of this is set in `other`.
  bool IsSubsetOf(const DenseBitset& other) const;
  /// True if the sets share at least one bit.
  bool Intersects(const DenseBitset& other) const;
  /// |this ∩ other| without materializing it.
  size_t IntersectCount(const DenseBitset& other) const;

  /// Extracts the members as a sorted BitsetIdVector (count-trailing-zeros
  /// word scan). The overload reuses `out`'s capacity.
  BitsetIdVector ToSorted() const;
  void ToSorted(BitsetIdVector* out) const;

 private:
  std::vector<uint64_t> words_;
  size_t universe_ = 0;
};

/// out = {x ∈ sorted `a` : x ∈ bits}. Preserves order, reuses `out`'s
/// capacity; `out` must not alias `a`. Identical to
/// SortedIntersect(a, bits.ToSorted()).
void IntersectInto(const BitsetIdVector& a, const DenseBitset& bits,
                   BitsetIdVector* out);

/// |{x ∈ a : x ∈ bits}| without materializing.
size_t IntersectCountWith(const BitsetIdVector& a, const DenseBitset& bits);

/// True if any element of sorted `a` is in `bits`.
bool IntersectsWith(const BitsetIdVector& a, const DenseBitset& bits);

// --- Kernel selection -----------------------------------------------------

/// Density heuristic: true if a bitset over [0, universe) is worth
/// building for a set population of `set_bits` ids. Requires the id space
/// to be dense enough that words carry ≥1 member on average (sparse id
/// spaces — e.g. raw device ids from a file — would waste cache and
/// zeroing time) and caps the universe so a hostile id can't provoke a
/// huge allocation. See DESIGN.md §2 (set-algebra kernels).
inline constexpr uint64_t kMaxBitsetUniverse = uint64_t{1} << 24;  // 16.7M
inline bool BitsetProfitable(uint64_t universe, size_t set_bits) {
  return universe > 0 && universe <= kMaxBitsetUniverse &&
         universe <= uint64_t{set_bits} * 64;
}

}  // namespace tcomp

#endif  // TCOMP_UTIL_DENSE_BITSET_H_
