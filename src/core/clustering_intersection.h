#ifndef TCOMP_CORE_CLUSTERING_INTERSECTION_H_
#define TCOMP_CORE_CLUSTERING_INTERSECTION_H_

#include <vector>

#include "core/discoverer.h"
#include "util/label_rows.h"

namespace tcomp {

/// Algorithm 1: the clustering-and-intersection baseline (CI), the
/// streaming adaptation of the convoy-discovery framework. Each snapshot is
/// DBSCAN-clustered, every stored candidate is intersected with every
/// cluster, all sufficiently large intersection results are kept, and every
/// new cluster is added as a fresh candidate — no pruning of any kind.
/// Time O(n₁² + n₁·n₂) per snapshot (Proposition 1).
class ClusteringIntersectionDiscoverer : public ObjectClusteringDiscoverer {
 public:
  explicit ClusteringIntersectionDiscoverer(const DiscoveryParams& params);

  void ProcessSnapshot(const Snapshot& snapshot,
                       std::vector<Companion>* newly_qualified) override;
  Algorithm algorithm() const override {
    return Algorithm::kClusteringIntersection;
  }
  void Reset() override;

  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// Candidate set after the last snapshot (exposed for tests that verify
  /// the paper's worked example, Fig. 4).
  const std::vector<Candidate>& candidates() const { return candidates_; }

 private:
  DiscoveryParams params_;
  std::vector<Candidate> candidates_;
  /// The I-step's id → cluster-label table: rebuilt every snapshot, kept
  /// as a member only to reuse its storage. Never serialized.
  LabelTable cluster_labels_;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_CLUSTERING_INTERSECTION_H_
