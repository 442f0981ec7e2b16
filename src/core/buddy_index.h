#ifndef TCOMP_CORE_BUDDY_INDEX_H_
#define TCOMP_CORE_BUDDY_INDEX_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/buddy.h"
#include "core/types.h"
#include "util/label_rows.h"
#include "util/set_signature.h"

namespace tcomp {

/// A candidate or cluster in the buddy-compressed representation used by
/// Algorithm 5: whole unchanged buddies are stored as single BID tokens,
/// everything else as loose object ids. The two parts are disjoint (no
/// loose object is a member of a listed buddy).
struct AtomSet {
  std::vector<BuddyId> buddy_ids;  // sorted ascending
  ObjectSet objects;               // sorted ascending, disjoint from buddies
  double duration = 0.0;

  /// Total object count (buddy members + loose objects); kept cached
  /// because the discovery loop tests it constantly against δs.
  size_t size = 0;

  /// Bloom/bounds signature of the *expanded* object set. Every producer
  /// composes it (from cached per-buddy signatures, so no expansion
  /// happens) to answer the disjointness and subset prefilters in O(1);
  /// the prefilters DCHECK it against BuddyIndex::ComposeSignature. The
  /// expanded set is invariant for a live candidate — buddy retirement
  /// trades tokens for the same objects — so it survives ExpandRetired.
  SetSignature signature;

  /// Storage cost in atoms — what the buddy index actually keeps in
  /// memory: one token per buddy plus the loose objects.
  size_t atom_count() const { return buddy_ids.size() + objects.size(); }
};

/// The buddy index (paper Definition 7): BID → member objects, for every
/// buddy id referenced by stored candidates or clusters. Candidates store
/// BIDs; the index owns the single copy of each buddy's member list and
/// answers expansion queries when a buddy changes.
class BuddyIndex {
 public:
  /// Registers (or refreshes) a buddy's membership.
  void Register(BuddyId id, const ObjectSet& members);

  /// Membership of `id`. The id must be registered.
  const ObjectSet& MembersOf(BuddyId id) const;

  /// Signature of `id`'s member set, cached at Register time. The id must
  /// be registered.
  const SetSignature& SignatureOf(BuddyId id) const;

  /// Signature of `set`'s expanded object set, composed from the cached
  /// per-buddy signatures in O(atom_count) without expanding anything.
  SetSignature ComposeSignature(const AtomSet& set) const;

  bool Contains(BuddyId id) const { return members_.count(id) > 0; }

  /// Expands an atom set to its full object-id set.
  ObjectSet Expand(const AtomSet& set) const;

  /// Replaces, in `set`, every buddy token whose id appears in the sorted
  /// list `retired` by its member objects (paper: "when the buddy changes,
  /// the system updates all the candidates in CanIDs and replaces BID with
  /// the corresponding objects").
  void ExpandRetired(const std::vector<BuddyId>& retired, AtomSet* set) const;

  /// Drops every entry whose id is not in the sorted list `referenced`.
  void PruneExcept(const std::vector<BuddyId>& referenced);

  /// Total objects stored in the index (one copy per registered buddy) —
  /// part of BU's space-cost accounting.
  int64_t stored_objects() const { return stored_objects_; }
  size_t size() const { return members_.size(); }
  void Clear();

  /// Raw entries (checkpoint/restore support).
  const std::unordered_map<BuddyId, ObjectSet>& entries() const {
    return members_;
  }

 private:
  std::unordered_map<BuddyId, ObjectSet> members_;
  std::unordered_map<BuddyId, SetSignature> signatures_;
  int64_t stored_objects_ = 0;
};

/// Oracle mapping an object to its current live buddy id (or
/// `kNoLiveBuddy`). The intersection kernel uses it to detect loose
/// candidate objects that sit inside a cluster's buddy token.
using BuddyOfFn = std::function<BuddyId(ObjectId)>;
constexpr BuddyId kNoLiveBuddy = static_cast<BuddyId>(-1);

/// Result of one buddy-aware intersection.
struct AtomIntersection {
  /// False iff the candidate and cluster share no object at all; in that
  /// case `result` and `remaining` are left empty and the caller keeps
  /// its working set unchanged (allocation-free fast path — most
  /// candidate×cluster pairs in a stream are disjoint).
  bool any_overlap = false;
  AtomSet result;
  /// What remains of the candidate after removing the matched atoms
  /// (smart intersection, Algorithm 5 line 10). Partially matched buddy
  /// tokens are expanded: matched members go to `result`, unmatched ones
  /// become loose objects here.
  AtomSet remaining;
};

/// Intersects candidate `r` with cluster `c` (both in atom form, both
/// referring to the same snapshot's live buddies). Shared buddy tokens
/// match in O(1) per token without touching their members — the shortcut
/// that makes BU's per-intersection cost low. `index` must know every
/// buddy id appearing in `r` and `c`.
///
/// `labels`, when non-null, is the snapshot's id → cluster-label table
/// and `label` is `c`'s cluster: the kernel then answers every membership
/// probe with one lookup instead of a binary search. A loose object of
/// `r` is in `c` iff its label is `label`; so is a member of a token `c`
/// does not share, because that live buddy is not wholly inside the
/// cluster and its members inside it are exactly its members in
/// `c.objects`. Results are identical with or without the table.
AtomIntersection IntersectAtomSets(const AtomSet& r, const AtomSet& c,
                                   const BuddyIndex& index,
                                   const BuddyOfFn& buddy_of,
                                   const LabelTable* labels = nullptr,
                                   int32_t label = -1);

/// True if the object set denoted by `inner` is a subset of the one
/// denoted by `outer` (used for the closed-candidate check without
/// expanding either side). `index` must know every referenced buddy id.
bool AtomSetIsSubset(const AtomSet& inner, const AtomSet& outer,
                     const BuddyIndex& index, const BuddyOfFn& buddy_of);

}  // namespace tcomp

#endif  // TCOMP_CORE_BUDDY_INDEX_H_
