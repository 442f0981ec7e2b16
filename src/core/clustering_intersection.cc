#include "core/clustering_intersection.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "util/dense_bitset.h"
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

  // Word-parallel fast path: with a dense id universe each cluster's
  // membership lives in a bitset, built on the cluster's first probe and
  // then shared by every candidate, so a candidate×cluster intersection
  // walks only the candidate's objects — O(|r|) bit probes instead of the
  // merge's O(|r| + |c|) element walk — with no per-candidate setup. The
  // products are identical to the merge path (differential-tested); only
  // the cost changes. Candidate ids beyond the snapshot's id range can't
  // match any cluster, so the bitset probes skip them.
  const uint64_t universe =
      snapshot.empty() ? 0 : uint64_t{snapshot.ids().back()} + 1;
  const bool use_bitset = !candidates_.empty() &&
                          BitsetProfitable(universe, snapshot.size());
  std::vector<DenseBitset> cluster_bits(
      use_bitset ? clustering.clusters.size() : 0);
  ObjectSet inter;  // reused across pairs; moved out only when kept

  // Lines 4–11: intersect every candidate with every cluster. A result
  // whose duration reaches δt is *output* as a companion and leaves the
  // candidate set — Definition 4 requires candidates to have duration
  // < δt (this is also what lets larger δt shrink the working set,
  // Fig. 17).
  for (const Candidate& r : candidates_) {
    for (size_t k = 0; k < clustering.clusters.size(); ++k) {
      const ObjectSet& c = clustering.clusters[k];
      ++stats_.intersections;
      if (use_bitset) {
        DenseBitset& bits = cluster_bits[k];
        if (bits.universe() == 0) {  // first probe of this cluster
          bits.Resize(universe);
          bits.SetSparse(c);
        }
        IntersectInto(r.objects, bits, &inter);
      } else {
        SortedIntersect(r.objects, c, &inter);
      }
      if (inter.size() < min_size) continue;
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
  out << "candidates " << candidates_.size() << '\n';
  for (const Candidate& r : candidates_) {
    out << r.duration << ' ' << r.objects.size();
    for (ObjectId o : r.objects) out << ' ' << o;
    out << '\n';
  }
  clusterer_.SaveState(out);
  return Status::OK();
}

Status ClusteringIntersectionDiscoverer::LoadState(std::istream& in) {
  TCOMP_RETURN_IF_ERROR(LoadCommon(in));
  std::string tag;
  size_t count = 0;
  if (!(in >> tag >> count) || tag != "candidates") {
    return Status::Corruption("expected 'candidates' section");
  }
  if (count > kMaxCheckpointCount) {
    return Status::Corruption("implausible candidate count");
  }
  candidates_.clear();
  candidates_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Candidate r;
    size_t n = 0;
    if (!(in >> r.duration >> n)) {
      return Status::Corruption("bad candidate record");
    }
    if (n > kMaxCheckpointCount) {
      return Status::Corruption("implausible candidate size");
    }
    r.objects.resize(n);
    for (size_t k = 0; k < n; ++k) {
      if (!(in >> r.objects[k])) {
        return Status::Corruption("bad candidate member");
      }
    }
    r.signature = SetSignature::Of(r.objects);
    candidates_.push_back(std::move(r));
  }
  return clusterer_.LoadState(in);
}

}  // namespace tcomp
