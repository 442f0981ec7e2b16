#include "core/smart_closed.h"

#include <algorithm>

#include "util/label_rows.h"
#include "util/sorted_ops.h"
#include "util/timer.h"

namespace tcomp {

SmartClosedDiscoverer::SmartClosedDiscoverer(const DiscoveryParams& params)
    : params_(params), clusterer_(params.cluster) {
  // SC reports only closed companions (Definition 5 applied to outputs);
  // emitting the redundant non-closed ones is CI's failure mode.
  log_.set_closed_mode(true);
}

SmartClosedDiscoverer::SmartClosedDiscoverer(const DiscoveryParams& params,
                                             ClusteringFn clustering)
    : params_(params),
      clustering_fn_(std::move(clustering)),
      clusterer_(params.cluster) {
  log_.set_closed_mode(true);
}

void SmartClosedDiscoverer::ProcessSnapshot(
    const Snapshot& snapshot, std::vector<Companion>* newly_qualified) {
  Timer cluster_timer;
  cluster_timer.Start();
  Clustering clustering;
  if (cluster_provider_) {
    // External C-step backend (e.g. the sharded engine); the incremental
    // reuse/dirty counters stay 0 on this path.
    clustering = cluster_provider_(snapshot, &stats_.distance_ops);
  } else if (clustering_fn_) {
    clustering = clustering_fn_(snapshot);
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
  // clustering is written once into an id → label table, and each
  // candidate gathers its members' labels once into a row that travels
  // with its shrinking working set. Probing a cluster is then one pass
  // that splits the working set and its row into the intersection and
  // the rest. Products and counters are identical to the merge path
  // (differential-tested); ids that left the snapshot gather label -1,
  // match no cluster, and stay in the working set as the merge path
  // leaves them.
  const bool use_rows =
      !candidates_.empty() &&
      cluster_labels_.Assign(snapshot.ids(), clustering.clusters);
  ObjectSet remaining;        // the candidate's working set
  std::vector<int32_t> row;   // labels of `remaining`, in step with it
  ObjectSet inter;  // reused across pairs; moved out only when kept

  for (const Candidate& r : candidates_) {
    // Working copy; matched objects are removed after each intersection
    // (smart intersection, Lemma 1).
    remaining = r.objects;
    if (use_rows) cluster_labels_.Gather(remaining, &row);
    double duration = r.duration + snapshot.duration();

    auto intersect_with = [&](size_t k) {
      ++stats_.intersections;
      if (use_rows) {
        SplitLabel(&remaining, &row, static_cast<int32_t>(k), &inter);
        if (inter.empty()) return;
      } else {
        SortedIntersect(remaining, clustering.clusters[k], &inter);
        if (inter.empty()) return;
        SortedSubtractInPlace(&remaining, inter);
      }
      if (inter.size() < min_size) return;
      // Qualified companions are output and leave the candidate set
      // (Definition 4: candidate duration < δt).
      if (duration >= params_.duration_threshold) {
        report(inter, duration);
      } else {
        next.push_back(Candidate{std::move(inter), duration});
        inter = ObjectSet();
      }
    };

    // Probe the cluster holding the candidate's first object before the
    // rest: an intact candidate is consumed by that one intersection and
    // the Lemma-1 early stop fires immediately. Products are independent
    // of scan order (hard clustering), so only cost changes. The label
    // row already holds that cluster; the merge path, which has no
    // table, looks the object up in the snapshot so both paths probe in
    // the same order and count the same intersections.
    int32_t first_label = -1;
    if (use_rows) {
      if (!row.empty()) first_label = row[0];
    } else if (!r.objects.empty()) {
      size_t idx = snapshot.IndexOf(r.objects.front());
      if (idx != Snapshot::kNpos) first_label = clustering.labels[idx];
    }
    if (first_label >= 0) {
      intersect_with(static_cast<size_t>(first_label));
    }
    for (size_t k = 0; k < clustering.clusters.size(); ++k) {
      // Line 6: once fewer than δs objects remain, no further cluster can
      // produce a qualifying result — stop early.
      if (remaining.size() < min_size) break;
      if (static_cast<int32_t>(k) == first_label) continue;
      intersect_with(k);
    }
  }

  // Lines 14–15: new clusters are stored only if closed (Definition 5).
  // The closure scan is timed separately for the stage sink; it runs
  // inside the I-step timer, so stats_.intersect_seconds keeps its
  // historical meaning (whole I-step) while the sink sees the split.
  Timer closure_timer;
  closure_timer.Start();
  for (const ObjectSet& c : clustering.clusters) {
    if (c.size() < min_size) continue;
    double duration = snapshot.duration();
    if (!IsClosedAgainst(c, duration, next)) continue;
    if (duration >= params_.duration_threshold) {
      report(c, duration);
    } else {
      next.push_back(Candidate{c, duration});
    }
  }
  closure_timer.Stop();

  candidates_ = std::move(next);
  intersect_timer.Stop();
  stats_.intersect_seconds += intersect_timer.Seconds();
  RecordStage(Stage::kIntersect,
              intersect_timer.Seconds() - closure_timer.Seconds());
  RecordStage(Stage::kClosure, closure_timer.Seconds());

  stats_.candidate_objects_last = TotalCandidateObjects(candidates_);
  stats_.candidate_objects_peak =
      std::max(stats_.candidate_objects_peak, stats_.candidate_objects_last);
  ++stats_.snapshots;
  ++snapshot_index_;
}

void SmartClosedDiscoverer::Reset() {
  candidates_.clear();
  clusterer_.Reset();
  log_.Clear();
  stats_ = DiscoveryStats{};
  snapshot_index_ = 0;
}


Status SmartClosedDiscoverer::SaveState(std::ostream& out) const {
  SaveCommon(out);
  SaveCandidates(out, candidates_);
  clusterer_.SaveState(out);
  return Status::OK();
}

Status SmartClosedDiscoverer::LoadState(std::istream& in) {
  TCOMP_RETURN_IF_ERROR(LoadCommon(in));
  TCOMP_RETURN_IF_ERROR(LoadCandidates(in, &candidates_));
  return clusterer_.LoadState(in);
}

}  // namespace tcomp
