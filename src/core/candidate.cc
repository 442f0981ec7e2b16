#include "core/candidate.h"

#include <algorithm>

#include "util/dense_bitset.h"
#include "util/sorted_ops.h"

namespace tcomp {

bool CompanionLog::Report(const ObjectSet& objects, double duration,
                          int64_t snapshot_index) {
  auto it = index_.find(objects);
  if (it != index_.end()) {
    Companion& existing = companions_[it->second];
    if (duration > existing.duration) {
      existing.duration = duration;
      dirty_ = true;
    }
    return false;
  }
  const SetSignature signature = SetSignature::Of(objects);
  // The O(1) signature prefilter rejects most pairs before the element
  // merge. It can only skip work, never change an answer.
  if (closed_mode_) {
    // Drop if dominated by a logged superset (Definition 5 on outputs).
    for (const auto& [set, pos] : index_) {
      if (set.size() >= objects.size() &&
          companions_[pos].duration >= duration &&
          signature.MaybeSubsetOf(signatures_[pos]) &&
          SortedIsSubset(objects, set)) {
        return false;
      }
    }
    // Evict logged subsets this companion dominates.
    for (auto eit = index_.begin(); eit != index_.end();) {
      if (eit->first.size() <= objects.size() &&
          companions_[eit->second].duration <= duration &&
          signatures_[eit->second].MaybeSubsetOf(signature) &&
          SortedIsSubset(eit->first, objects)) {
        companions_[eit->second].objects.clear();  // tombstone
        eit = index_.erase(eit);
        dirty_ = true;
      } else {
        ++eit;
      }
    }
  }
  index_.emplace(objects, companions_.size());
  companions_.push_back(Companion{objects, duration, snapshot_index});
  signatures_.push_back(signature);
  dirty_ = true;
  return true;
}

void CompanionLog::RestoreEntry(Companion companion) {
  TCOMP_DCHECK(index_.find(companion.objects) == index_.end());
  index_.emplace(companion.objects, companions_.size());
  signatures_.push_back(SetSignature::Of(companion.objects));
  companions_.push_back(std::move(companion));
  dirty_ = true;
}

const std::vector<Companion>& CompanionLog::companions() const {
  if (dirty_) {
    materialized_.clear();
    materialized_.reserve(index_.size());
    for (const Companion& c : companions_) {
      if (!c.objects.empty()) materialized_.push_back(c);
    }
    dirty_ = false;
  }
  return materialized_;
}

void CompanionLog::Clear() {
  companions_.clear();
  materialized_.clear();
  signatures_.clear();
  index_.clear();
  dirty_ = false;
}

bool IsClosedAgainst(const ObjectSet& objects, double duration,
                     const std::vector<Candidate>& against) {
  const SetSignature signature = SetSignature::Of(objects);
  for (const Candidate& r : against) {
    TCOMP_DCHECK(r.signature == SetSignature::Of(r.objects));
    if (r.duration >= duration && r.objects.size() >= objects.size() &&
        signature.MaybeSubsetOf(r.signature) &&
        SortedIsSubset(objects, r.objects)) {
      return false;
    }
  }
  return true;
}

int64_t TotalCandidateObjects(const std::vector<Candidate>& candidates) {
  int64_t total = 0;
  for (const Candidate& r : candidates) {
    total += static_cast<int64_t>(r.objects.size());
  }
  return total;
}

}  // namespace tcomp
