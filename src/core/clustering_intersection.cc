#include "core/clustering_intersection.h"

#include <algorithm>

#include "util/label_rows.h"
#include "util/sorted_ops.h"
#include "util/timer.h"

namespace tcomp {

ClusteringIntersectionDiscoverer::ClusteringIntersectionDiscoverer(
    const DiscoveryParams& params)
    : params_(params), clusterer_(params.cluster) {}

void ClusteringIntersectionDiscoverer::ProcessSnapshot(
    const Snapshot& snapshot, std::vector<Companion>* newly_qualified) {
  Timer cluster_timer;
  cluster_timer.Start();
  Clustering clustering;
  if (cluster_provider_) {
    // External C-step backend (e.g. the sharded engine). The provider
    // owns its own reuse strategy, so the incremental reuse/dirty
    // counters stay 0 on this path.
    clustering = cluster_provider_(snapshot, &stats_.distance_ops);
  } else {
    ClusterDeltaStats cluster_delta;
    clustering =
        clusterer_.Cluster(snapshot, &stats_.distance_ops, &cluster_delta);
    stats_.cluster_reuse += cluster_delta.reuse;
    stats_.cluster_dirty += cluster_delta.dirty;
    stats_.cluster_full_rebuilds += cluster_delta.full_rebuilds;
    stats_.soa_batches += cluster_delta.soa_batches;
    stats_.soa_lanes += cluster_delta.soa_lanes;
    stats_.eps_filter_seconds += cluster_delta.eps_filter_seconds;
    if (cluster_delta.eps_filter_seconds > 0.0) {
      RecordStage(Stage::kEpsFilter, cluster_delta.eps_filter_seconds);
    }
  }
  cluster_timer.Stop();
  stats_.cluster_seconds += cluster_timer.Seconds();
  RecordStage(Stage::kCluster, cluster_timer.Seconds());

  Timer intersect_timer;
  intersect_timer.Start();
  const size_t min_size = static_cast<size_t>(params_.size_threshold);
  std::vector<Candidate> next;
  next.reserve(candidates_.size() + clustering.clusters.size());

  auto report = [&](const ObjectSet& objects, double duration) {
    ReportCompanion(objects, duration, newly_qualified);
  };

  // Label-row fast path (DESIGN.md §1.6b): with a dense id universe the
  // clustering is written once into an id → label table and each
  // candidate gathers its members' labels once. A candidate×cluster
  // intersection is then a vectorized compare-scan of that row for the
  // cluster's label (one kernel call counts every cluster), and the
  // intersection is built only when it reaches δs. Every pair still
  // costs one scan of the candidate — CI is the unpruned baseline whose
  // cost Proposition 1 charges per pair. Products and counters are
  // identical to the merge path (differential-tested); ids that left the
  // snapshot gather label -1 and match no cluster.
  const bool use_rows =
      !candidates_.empty() &&
      cluster_labels_.Assign(snapshot.ids(), clustering.clusters);
  std::vector<int32_t> row;
  std::vector<uint32_t> counts(use_rows ? clustering.clusters.size() : 0);
  ObjectSet inter;  // reused across pairs; moved out only when kept

  // Lines 4–11: intersect every candidate with every cluster. A result
  // whose duration reaches δt is *output* as a companion and leaves the
  // candidate set — Definition 4 requires candidates to have duration
  // < δt (this is also what lets larger δt shrink the working set,
  // Fig. 17).
  for (const Candidate& r : candidates_) {
    if (use_rows) {
      cluster_labels_.Gather(r.objects, &row);
      CountLabels(row.data(), row.size(), counts.size(), counts.data());
    }
    for (size_t k = 0; k < clustering.clusters.size(); ++k) {
      ++stats_.intersections;
      if (use_rows) {
        if (counts[k] < min_size) continue;
        SelectLabel(r.objects, row, static_cast<int32_t>(k), &inter);
      } else {
        SortedIntersect(r.objects, clustering.clusters[k], &inter);
        if (inter.size() < min_size) continue;
      }
      double duration = r.duration + snapshot.duration();
      if (duration >= params_.duration_threshold) {
        report(inter, duration);
      } else {
        next.push_back(Candidate{std::move(inter), duration});
        inter = ObjectSet();
      }
    }
  }

  // Line 12: every new cluster becomes a candidate, unconditionally.
  for (const ObjectSet& c : clustering.clusters) {
    if (c.size() < min_size) continue;
    double duration = snapshot.duration();
    if (duration >= params_.duration_threshold) {
      report(c, duration);
    } else {
      next.push_back(Candidate{c, duration});
    }
  }

  candidates_ = std::move(next);
  intersect_timer.Stop();
  stats_.intersect_seconds += intersect_timer.Seconds();
  // CI has no closure check (new clusters are admitted unconditionally),
  // so kClosure records no samples for this algorithm.
  RecordStage(Stage::kIntersect, intersect_timer.Seconds());

  stats_.candidate_objects_last = TotalCandidateObjects(candidates_);
  stats_.candidate_objects_peak =
      std::max(stats_.candidate_objects_peak, stats_.candidate_objects_last);
  ++stats_.snapshots;
  ++snapshot_index_;
}

void ClusteringIntersectionDiscoverer::Reset() {
  candidates_.clear();
  clusterer_.Reset();
  log_.Clear();
  stats_ = DiscoveryStats{};
  snapshot_index_ = 0;
}


Status ClusteringIntersectionDiscoverer::SaveState(std::ostream& out) const {
  SaveCommon(out);
  SaveCandidates(out, candidates_);
  clusterer_.SaveState(out);
  return Status::OK();
}

Status ClusteringIntersectionDiscoverer::LoadState(std::istream& in) {
  TCOMP_RETURN_IF_ERROR(LoadCommon(in));
  TCOMP_RETURN_IF_ERROR(LoadCandidates(in, &candidates_));
  return clusterer_.LoadState(in);
}

}  // namespace tcomp
