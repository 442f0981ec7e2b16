#ifndef TCOMP_CORE_SMART_CLOSED_H_
#define TCOMP_CORE_SMART_CLOSED_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/discoverer.h"
#include "core/incremental_cluster.h"

namespace tcomp {

/// Pluggable per-snapshot clustering for SmartClosedDiscoverer. Must obey
/// the Clustering spec of core/dbscan.h (deterministic labels, hard
/// clustering). Lets the smart-and-closed machinery run over any notion
/// of "density connected" — e.g. road-network distance (src/network/).
using ClusteringFn = std::function<Clustering(const Snapshot&)>;

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
class SmartClosedDiscoverer : public CompanionDiscoverer {
 public:
  explicit SmartClosedDiscoverer(const DiscoveryParams& params);

  /// Variant with a custom clustering (e.g. network-constrained DBSCAN).
  /// `params.cluster` is ignored in favor of whatever `clustering`
  /// implements; δs/δt apply unchanged.
  SmartClosedDiscoverer(const DiscoveryParams& params,
                        ClusteringFn clustering);

  void ProcessSnapshot(const Snapshot& snapshot,
                       std::vector<Companion>* newly_qualified) override;
  Algorithm algorithm() const override { return Algorithm::kSmartClosed; }
  void Reset() override;

  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// SC's C-step clusters raw objects, so an external backend slots in
  /// directly. Takes precedence over a ClusteringFn passed at
  /// construction (in practice the two are never combined: ClusteringFn
  /// carries a different *metric*, the provider a different *execution*).
  bool SetClusterProvider(ClusterProvider provider) override {
    cluster_provider_ = std::move(provider);
    return true;
  }

  const std::vector<Candidate>& candidates() const { return candidates_; }

 private:
  DiscoveryParams params_;
  /// External clustering backend; empty = clustering_fn_, then the
  /// built-in incremental clusterer.
  ClusterProvider cluster_provider_;
  ClusteringFn clustering_fn_;  // empty = built-in DBSCAN
  std::vector<Candidate> candidates_;
  /// Built-in clustering path only (unused when clustering_fn_ is set —
  /// a custom metric has no anchor/triangle-inequality structure to
  /// exploit). Exact: byte-identical to Dbscan.
  IncrementalClusterer clusterer_;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_SMART_CLOSED_H_
