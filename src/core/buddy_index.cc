#include "core/buddy_index.h"

#include <algorithm>

#include "util/dense_bitset.h"
#include "util/logging.h"
#include "util/sorted_ops.h"

namespace tcomp {

void BuddyIndex::Register(BuddyId id, const ObjectSet& members) {
  auto it = members_.find(id);
  if (it != members_.end()) {
    stored_objects_ -= static_cast<int64_t>(it->second.size());
    it->second = members;
  } else {
    members_.emplace(id, members);
  }
  signatures_[id] = SetSignature::Of(members);
  stored_objects_ += static_cast<int64_t>(members.size());
}

const ObjectSet& BuddyIndex::MembersOf(BuddyId id) const {
  auto it = members_.find(id);
  TCOMP_CHECK(it != members_.end()) << "buddy " << id << " not indexed";
  return it->second;
}

const SetSignature& BuddyIndex::SignatureOf(BuddyId id) const {
  auto it = signatures_.find(id);
  TCOMP_CHECK(it != signatures_.end()) << "buddy " << id << " not indexed";
  return it->second;
}

SetSignature BuddyIndex::ComposeSignature(const AtomSet& set) const {
  SetSignature s;
  for (BuddyId b : set.buddy_ids) s.MergeUnion(SignatureOf(b));
  for (ObjectId o : set.objects) s.AddId(o);
  return s;
}

ObjectSet BuddyIndex::Expand(const AtomSet& set) const {
  ObjectSet out = set.objects;
  for (BuddyId b : set.buddy_ids) {
    const ObjectSet& members = MembersOf(b);
    out.insert(out.end(), members.begin(), members.end());
  }
  SortUnique(&out);
  return out;
}

void BuddyIndex::ExpandRetired(const std::vector<BuddyId>& retired,
                               AtomSet* set) const {
  TCOMP_DCHECK(IsSortedUnique(retired));
  std::vector<BuddyId> kept;
  kept.reserve(set->buddy_ids.size());
  bool any = false;
  for (BuddyId b : set->buddy_ids) {
    if (std::binary_search(retired.begin(), retired.end(), b)) {
      const ObjectSet& members = MembersOf(b);
      set->objects.insert(set->objects.end(), members.begin(),
                          members.end());
      any = true;
    } else {
      kept.push_back(b);
    }
  }
  if (!any) return;
  set->buddy_ids = std::move(kept);
  SortUnique(&set->objects);
  // Object count is unchanged by expansion; `size` stays valid.
}

void BuddyIndex::PruneExcept(const std::vector<BuddyId>& referenced) {
  TCOMP_DCHECK(IsSortedUnique(referenced));
  for (auto it = members_.begin(); it != members_.end();) {
    if (!std::binary_search(referenced.begin(), referenced.end(),
                            it->first)) {
      stored_objects_ -= static_cast<int64_t>(it->second.size());
      signatures_.erase(it->first);
      it = members_.erase(it);
    } else {
      ++it;
    }
  }
}

void BuddyIndex::Clear() {
  members_.clear();
  signatures_.clear();
  stored_objects_ = 0;
}

AtomIntersection IntersectAtomSets(const AtomSet& r, const AtomSet& c,
                                   const BuddyIndex& index,
                                   const BuddyOfFn& buddy_of,
                                   const DenseBitset* c_object_bits) {
  AtomIntersection out;
  TCOMP_DCHECK(c_object_bits == nullptr ||
               c_object_bits->Count() == c.objects.size());

  // O(1) disjointness prefilter: a zero Bloom-AND or non-overlapping id
  // ranges proves the expanded sets share nothing, which is exactly the
  // any_overlap=false answer the merge probes below would reach.
  TCOMP_DCHECK(r.signature == index.ComposeSignature(r));
  TCOMP_DCHECK(c.signature == index.ComposeSignature(c));
  if (!r.signature.MaybeIntersects(c.signature)) return out;

  // Membership of an object in the cluster's loose-object list: one bit
  // probe when the caller supplied the cluster's bitset, else a binary
  // search. Both answer the same question; only the cost differs.
  auto in_c_objects = [&](ObjectId o) {
    return c_object_bits != nullptr ? c_object_bits->Test(o)
                                    : SortedContains(c.objects, o);
  };

  // Allocation-free disjointness probe first: most candidate×cluster
  // pairs share nothing, and the full path below allocates several
  // vectors.
  bool overlap = SortedIntersects(r.buddy_ids, c.buddy_ids);
  if (!overlap && !c.objects.empty()) {
    for (BuddyId b : r.buddy_ids) {
      const ObjectSet& members = index.MembersOf(b);
      if (c_object_bits != nullptr ? IntersectsWith(members, *c_object_bits)
                                   : SortedIntersects(members, c.objects)) {
        overlap = true;
        break;
      }
    }
  }
  if (!overlap) {
    for (ObjectId o : r.objects) {
      BuddyId bo = buddy_of(o);
      if ((bo != kNoLiveBuddy && SortedContains(c.buddy_ids, bo)) ||
          in_c_objects(o)) {
        overlap = true;
        break;
      }
    }
  }
  if (!overlap) return out;  // any_overlap stays false
  out.any_overlap = true;

  // Whole-buddy token matches: O(1) per token, members never touched.
  std::vector<BuddyId> shared = SortedIntersect(r.buddy_ids, c.buddy_ids);
  out.result.buddy_ids = shared;
  size_t result_size = 0;
  for (BuddyId b : shared) result_size += index.MembersOf(b).size();

  // Unmatched candidate buddies may straddle the cluster boundary: the
  // cluster then lists the inside members as loose objects.
  ObjectSet matched;  // reused across tokens
  for (BuddyId b : r.buddy_ids) {
    if (std::binary_search(shared.begin(), shared.end(), b)) continue;
    const ObjectSet& members = index.MembersOf(b);
    if (c_object_bits != nullptr) {
      IntersectInto(members, *c_object_bits, &matched);
    } else {
      SortedIntersect(members, c.objects, &matched);
    }
    if (matched.empty()) {
      out.remaining.buddy_ids.push_back(b);
      out.remaining.size += members.size();
      continue;
    }
    // Partially matched: the token dissolves — matched members join the
    // result, the rest stay in the candidate as loose objects. Given
    // o ∈ members, o ∈ matched ⟺ o ∈ c.objects, so the bitset answers
    // this split too.
    for (ObjectId o : members) {
      bool hit = c_object_bits != nullptr
                     ? c_object_bits->Test(o)
                     : std::binary_search(matched.begin(), matched.end(), o);
      if (hit) {
        out.result.objects.push_back(o);
      } else {
        out.remaining.objects.push_back(o);
      }
    }
  }

  // Loose candidate objects: inside one of the cluster's buddy tokens, or
  // among the cluster's loose objects, or unmatched.
  for (ObjectId o : r.objects) {
    BuddyId bo = buddy_of(o);
    bool is_matched =
        (bo != kNoLiveBuddy && SortedContains(c.buddy_ids, bo)) ||
        in_c_objects(o);
    if (is_matched) {
      out.result.objects.push_back(o);
    } else {
      out.remaining.objects.push_back(o);
    }
  }

  SortUnique(&out.result.objects);
  SortUnique(&out.remaining.objects);
  out.result.size = result_size + out.result.objects.size();
  out.remaining.size += out.remaining.objects.size();
  // Fresh atom sets get fresh signatures so the prefilter keeps working
  // down the candidate's lifetime; O(atom_count), no expansion.
  out.result.signature = index.ComposeSignature(out.result);
  out.remaining.signature = index.ComposeSignature(out.remaining);
  return out;
}

bool AtomSetIsSubset(const AtomSet& inner, const AtomSet& outer,
                     const BuddyIndex& index, const BuddyOfFn& buddy_of) {
  if (inner.size > outer.size) return false;
  for (BuddyId b : inner.buddy_ids) {
    if (SortedContains(outer.buddy_ids, b)) continue;
    for (ObjectId o : index.MembersOf(b)) {
      if (!SortedContains(outer.objects, o)) return false;
    }
  }
  for (ObjectId o : inner.objects) {
    BuddyId bo = buddy_of(o);
    if (bo != kNoLiveBuddy && SortedContains(outer.buddy_ids, bo)) continue;
    if (!SortedContains(outer.objects, o)) return false;
  }
  return true;
}

}  // namespace tcomp
