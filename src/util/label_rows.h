#ifndef TCOMP_UTIL_LABEL_ROWS_H_
#define TCOMP_UTIL_LABEL_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcomp {

/// Label rows: the I-step layout of CI, SC, BU and the convoy baseline
/// (DESIGN.md §1.6b). A snapshot's clustering is written once into an
/// id → cluster-label table; each candidate then gathers its members'
/// labels once into a row parallel to its sorted id vector. A
/// candidate×cluster intersection is a compare-scan of that row for the
/// cluster's label, and the intersection itself — the row's ids carrying
/// that label, already ascending — is built only when it is kept.
///
/// Ids are uint32_t, mirroring core/types.h (ObjectId, and ObjectSet as
/// a sorted vector of them) without a util → core include. Label -1
/// stands for "in no cluster": noise, absent from the snapshot, or
/// beyond the table's universe. Any id at or beyond the universe gathers
/// -1, which is what lets a candidate keep objects that left the
/// snapshot.

/// Density gate: true if a structure indexed by id over [0, universe)
/// is worth building for `set_bits` ids — the id → label table below,
/// and through it the label-row path of every I-step. It requires at
/// most 64 slots per id (256 bytes of table per member; sparse id
/// spaces, e.g. raw device ids from a file, would waste cache and
/// zeroing time) and caps the universe so a hostile id can't provoke a
/// huge allocation. See DESIGN.md §1.6b.
inline constexpr uint64_t kMaxBitsetUniverse = uint64_t{1} << 24;  // 16.7M
inline bool BitsetProfitable(uint64_t universe, size_t set_bits) {
  return universe > 0 && universe <= kMaxBitsetUniverse &&
         universe <= uint64_t{set_bits} * 64;
}

/// Dense id → cluster-label lookup over a snapshot's id universe
/// [0, max id + 1): 4 bytes per slot, rebuilt per snapshot.
class LabelTable {
 public:
  /// Rebuilds the table for a snapshot whose ascending ids are
  /// `snapshot_ids`: every slot -1, then each id of groups[k] labeled k
  /// (the groups' ids must come from `snapshot_ids`). Returns false,
  /// building nothing, when the universe is too sparse for a table
  /// (BitsetProfitable above — the only gate); callers then take the
  /// sorted-merge path.
  bool Assign(const std::vector<uint32_t>& snapshot_ids,
              const std::vector<std::vector<uint32_t>>& groups);

  /// The label of one id; -1 at or beyond the universe.
  int32_t Label(uint32_t id) const {
    return static_cast<size_t>(id) < label_of_.size() ? label_of_[id] : -1;
  }

  /// row[i] = Label(ids[i]), for every i (resizes `row`).
  void Gather(const std::vector<uint32_t>& ids,
              std::vector<int32_t>* row) const;

 private:
  std::vector<int32_t> label_of_;
};

/// counts[k] = number of entries of row[0, n) equal to k, for every
/// label k in [0, num_labels). Every (row, label) pair costs a compare of
/// every row entry — the per-pair scan of CI's cost model — vectorized
/// across a block of labels at a time (AVX2 clone where available,
/// util/target_clones.h). Entries -1 count for no label. Requires
/// n < 2^32.
void CountLabels(const int32_t* row, size_t n, size_t num_labels,
                 uint32_t* counts);

/// out = {ids[i] : row[i] == label} in input order, so a sorted `ids`
/// gives a sorted result. `row` is parallel to `ids`; `out` is cleared
/// first, keeps its capacity, and must not alias `ids`.
void SelectLabel(const std::vector<uint32_t>& ids,
                 const std::vector<int32_t>& row, int32_t label,
                 std::vector<uint32_t>* out);

/// One pass that moves every ids[i] with row[i] == label to `out` and
/// compacts the rest of `ids` and `row` in step, both keeping their
/// order. `out` is cleared first and must not alias `ids`.
void SplitLabel(std::vector<uint32_t>* ids, std::vector<int32_t>* row,
                int32_t label, std::vector<uint32_t>* out);

}  // namespace tcomp

#endif  // TCOMP_UTIL_LABEL_ROWS_H_
