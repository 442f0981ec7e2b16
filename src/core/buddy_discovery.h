#ifndef TCOMP_CORE_BUDDY_DISCOVERY_H_
#define TCOMP_CORE_BUDDY_DISCOVERY_H_

#include <vector>

#include "core/buddy.h"
#include "core/buddy_clustering.h"
#include "core/buddy_index.h"
#include "core/discoverer.h"

namespace tcomp {

/// Algorithm 5: buddy-based companion discovery (BU).
///
/// Per snapshot:
///  * M-step — maintain the traveling-buddy set (Algorithm 3) and expand
///    retired buddy tokens inside stored candidates via the buddy index;
///  * C-step — buddy-based clustering (Algorithm 4);
///  * I-step — smart-and-closed candidate intersection over the
///    buddy-compressed atom representation: unchanged buddies intersect as
///    single tokens, so both the per-intersection time and the candidate
///    storage shrink (paper Example 6).
///
/// BU reports exactly the companions SC reports (the clustering is
/// identical and the atom algebra is an exact compressed encoding of SC's
/// object-set algebra) — the property behind "BU and SC have the same
/// precision and recall" in the paper's Section V-D.
class BuddyDiscoverer : public CompanionDiscoverer {
 public:
  explicit BuddyDiscoverer(const DiscoveryParams& params);

  void ProcessSnapshot(const Snapshot& snapshot,
                       std::vector<Companion>* newly_qualified) override;
  Algorithm algorithm() const override { return Algorithm::kBuddy; }
  void Reset() override;

  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// The live buddy set (exposed for tests and the Fig. 18 bench).
  const BuddySet& buddy_set() const { return buddies_; }

  /// Stored candidates in atom form (exposed for tests).
  const std::vector<AtomSet>& candidates() const { return candidates_; }

  /// δγ actually in use (params.buddy_radius, defaulted to ε/2).
  double buddy_radius() const { return buddies_.radius_threshold(); }

 private:
  void EnsureIndexed(BuddyId id);
  BuddyId LiveBuddyOf(ObjectId oid) const;

  DiscoveryParams params_;
  BuddySet buddies_;
  BuddyIndex index_;
  std::vector<AtomSet> candidates_;
  LabelTable cluster_labels_;  // rebuilt per snapshot, storage reused
  // I-step member count per buddy slot; all zero between clusters.
  std::vector<uint32_t> slot_counts_;
  bool initialized_ = false;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_BUDDY_DISCOVERY_H_
