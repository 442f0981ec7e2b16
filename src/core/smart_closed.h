#ifndef TCOMP_CORE_SMART_CLOSED_H_
#define TCOMP_CORE_SMART_CLOSED_H_

#include <vector>

#include "core/discoverer.h"
#include "util/label_rows.h"

namespace tcomp {

/// Algorithm 2: the smart-and-closed discoverer (SC). Improves CI with:
///  * smart intersection (Lemma 1) — objects already matched by earlier
///    clusters are removed from the candidate's working set, and the scan
///    over clusters stops as soon as fewer than δs objects remain;
///  * closed candidates (Definition 5) — a new cluster is only stored if
///    no existing candidate with the same-or-superset objects and an equal
///    or longer duration already exists.
/// SC's output is the *closed* subset of CI's output: every companion SC
/// reports is also reported by CI, and every companion CI reports is a
/// subset of some SC companion with equal or longer duration (dropping a
/// non-closed cluster only drops dominated chains). This is why the paper
/// measures CI's precision below SC's — CI emits the redundant non-closed
/// companions too. Costs are roughly halved relative to CI.
///
/// Another notion of "density connected" — road-network distance, say
/// (src/network/) — is a cluster provider (SetClusterProvider); δs and δt
/// apply unchanged.
class SmartClosedDiscoverer : public ObjectClusteringDiscoverer {
 public:
  explicit SmartClosedDiscoverer(const DiscoveryParams& params);

  void ProcessSnapshot(const Snapshot& snapshot,
                       std::vector<Companion>* newly_qualified) override;
  Algorithm algorithm() const override { return Algorithm::kSmartClosed; }
  void Reset() override;

  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  const std::vector<Candidate>& candidates() const { return candidates_; }

 private:
  DiscoveryParams params_;
  std::vector<Candidate> candidates_;
  /// The I-step's id → cluster-label table: rebuilt every snapshot, kept
  /// as a member only to reuse its storage. Never serialized.
  LabelTable cluster_labels_;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_SMART_CLOSED_H_
