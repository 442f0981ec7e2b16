#include "core/smart_closed.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "util/dense_bitset.h"
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

  // Word-parallel fast path: clusters are fixed for the whole snapshot
  // while the candidate's working set shrinks (Lemma 1), so the bitsets
  // live on the *cluster* side — built lazily on a cluster's first probe
  // and shared by every candidate after that. Each later probe walks only
  // the candidate's remaining objects, O(|remaining|) instead of the
  // merge's O(|remaining| + |c|), with no per-candidate setup (the
  // Lemma-1 early stop means most candidates probe one or two clusters,
  // too few to amortize anything per-candidate). Products match the merge
  // path bit for bit (differential-tested).
  const uint64_t universe =
      snapshot.empty() ? 0 : uint64_t{snapshot.ids().back()} + 1;
  const bool use_bitset = !candidates_.empty() &&
                          BitsetProfitable(universe, snapshot.size());
  std::vector<DenseBitset> cluster_bits(
      use_bitset ? clustering.clusters.size() : 0);
  ObjectSet inter;  // reused across pairs; moved out only when kept

  for (const Candidate& r : candidates_) {
    // Working copy; matched objects are removed after each intersection
    // (smart intersection, Lemma 1).
    ObjectSet remaining = r.objects;
    double duration = r.duration + snapshot.duration();

    auto intersect_with = [&](size_t k) {
      const ObjectSet& c = clustering.clusters[k];
      ++stats_.intersections;
      if (use_bitset) {
        DenseBitset& bits = cluster_bits[k];
        if (bits.universe() == 0) {  // first probe of this cluster
          bits.Resize(universe);
          bits.SetSparse(c);
        }
        IntersectInto(remaining, bits, &inter);
      } else {
        SortedIntersect(remaining, c, &inter);
      }
      if (inter.empty()) return;
      SortedSubtractInPlace(&remaining, inter);
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
    // of scan order (hard clustering), so only cost changes.
    int32_t first_label = -1;
    if (!r.objects.empty()) {
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
  out << "candidates " << candidates_.size() << '\n';
  for (const Candidate& r : candidates_) {
    out << r.duration << ' ' << r.objects.size();
    for (ObjectId o : r.objects) out << ' ' << o;
    out << '\n';
  }
  clusterer_.SaveState(out);
  return Status::OK();
}

Status SmartClosedDiscoverer::LoadState(std::istream& in) {
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
