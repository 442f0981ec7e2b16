#include "core/discoverer.h"

#include <istream>
#include <ostream>
#include <string>

#include "core/buddy_discovery.h"
#include "core/clustering_intersection.h"
#include "core/smart_closed.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tcomp {

Status CompanionDiscoverer::ReadObjectSet(std::istream& in, const char* what,
                                          ObjectSet* out) {
  size_t n = 0;
  if (!(in >> n)) {
    return Status::Corruption(std::string("bad ") + what + " size");
  }
  if (n > kMaxCheckpointCount) {
    return Status::Corruption(std::string("implausible ") + what +
                              " size " + std::to_string(n));
  }
  out->resize(n);
  for (size_t k = 0; k < n; ++k) {
    if (!(in >> (*out)[k])) {
      return Status::Corruption(std::string("bad ") + what + " member");
    }
    if (k > 0 && (*out)[k] <= (*out)[k - 1]) {
      return Status::Corruption(std::string(what) +
                                " members not strictly ascending");
    }
  }
  return Status::OK();
}

void CompanionDiscoverer::SaveCommon(std::ostream& out) const {
  out << "common " << snapshot_index_ << '\n';
  const DiscoveryStats& s = stats_;
  out << "stats " << s.snapshots << ' ' << s.intersections << ' '
      << s.distance_ops << ' ' << s.candidate_objects_peak << ' '
      << s.candidate_objects_last << ' ' << s.companions_reported << ' '
      << s.buddy_pairs_checked << ' ' << s.buddy_pairs_pruned << ' '
      << s.buddies_total << ' ' << s.buddies_unchanged << ' '
      << s.buddy_member_sum << ' ' << s.cluster_reuse << ' '
      << s.cluster_dirty << ' ' << s.cluster_full_rebuilds << ' '
      << s.maintain_seconds << ' ' << s.cluster_seconds << ' '
      << s.intersect_seconds << '\n';
  const std::vector<Companion>& companions = log_.companions();
  out << "log " << companions.size() << '\n';
  for (const Companion& c : companions) {
    out << c.snapshot_index << ' ' << c.duration << ' '
        << c.objects.size();
    for (ObjectId o : c.objects) out << ' ' << o;
    out << '\n';
  }
}

Status CompanionDiscoverer::LoadCommon(std::istream& in) {
  std::string tag;
  if (!(in >> tag) || tag != "common") {
    return Status::Corruption("expected 'common' section");
  }
  if (!(in >> snapshot_index_)) {
    return Status::Corruption("bad snapshot index");
  }
  if (!(in >> tag) || tag != "stats") {
    return Status::Corruption("expected 'stats' section");
  }
  DiscoveryStats s;
  if (!(in >> s.snapshots >> s.intersections >> s.distance_ops >>
        s.candidate_objects_peak >> s.candidate_objects_last >>
        s.companions_reported >> s.buddy_pairs_checked >>
        s.buddy_pairs_pruned >> s.buddies_total >> s.buddies_unchanged >>
        s.buddy_member_sum >> s.cluster_reuse >> s.cluster_dirty >>
        s.cluster_full_rebuilds >> s.maintain_seconds >>
        s.cluster_seconds >> s.intersect_seconds)) {
    return Status::Corruption("bad stats record");
  }
  stats_ = s;
  size_t count = 0;
  if (!(in >> tag >> count) || tag != "log") {
    return Status::Corruption("expected 'log' section");
  }
  if (count > kMaxCheckpointCount) {
    return Status::Corruption("implausible companion-log count " +
                              std::to_string(count));
  }
  log_.Clear();
  for (size_t i = 0; i < count; ++i) {
    Companion c;
    if (!(in >> c.snapshot_index >> c.duration)) {
      return Status::Corruption("bad companion record");
    }
    TCOMP_RETURN_IF_ERROR(ReadObjectSet(in, "companion", &c.objects));
    if (!log_.RestoreEntry(std::move(c))) {
      return Status::Corruption("companion log repeats an object set");
    }
  }
  return Status::OK();
}

void CompanionDiscoverer::SaveCandidates(
    std::ostream& out, const std::vector<Candidate>& candidates) {
  out << "candidates " << candidates.size() << '\n';
  for (const Candidate& r : candidates) {
    out << r.duration << ' ' << r.objects.size();
    for (ObjectId o : r.objects) out << ' ' << o;
    out << '\n';
  }
}

Status CompanionDiscoverer::LoadCandidates(
    std::istream& in, std::vector<Candidate>* candidates) {
  std::string tag;
  size_t count = 0;
  if (!(in >> tag >> count) || tag != "candidates") {
    return Status::Corruption("expected 'candidates' section");
  }
  if (count > kMaxCheckpointCount) {
    return Status::Corruption("implausible candidate count");
  }
  candidates->clear();
  for (size_t i = 0; i < count; ++i) {
    double duration = 0.0;
    if (!(in >> duration)) return Status::Corruption("bad candidate record");
    ObjectSet objects;
    TCOMP_RETURN_IF_ERROR(ReadObjectSet(in, "candidate", &objects));
    candidates->push_back(Candidate{std::move(objects), duration});
  }
  return Status::OK();
}

Clustering ObjectClusteringDiscoverer::ClusterObjects(
    const Snapshot& snapshot) {
  Timer cluster_timer;
  cluster_timer.Start();
  Clustering clustering;
  if (cluster_provider_) {
    clustering = cluster_provider_(snapshot, &stats_.distance_ops);
  } else {
    int64_t swept = 0;
    SweepCost sweep;
    clustering = clusterer_.Cluster(snapshot, &swept, &sweep);
    stats_.distance_ops += swept;
    stats_.soa_lanes += swept;
    stats_.soa_batches += sweep.batches;
    stats_.cluster_dirty += static_cast<int64_t>(snapshot.size());
    ++stats_.cluster_full_rebuilds;
    stats_.eps_filter_seconds += sweep.seconds;
    if (sweep.seconds > 0.0) RecordStage(Stage::kEpsFilter, sweep.seconds);
  }
  cluster_timer.Stop();
  stats_.cluster_seconds += cluster_timer.Seconds();
  RecordStage(Stage::kCluster, cluster_timer.Seconds());
  return clustering;
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kClusteringIntersection:
      return "CI";
    case Algorithm::kSmartClosed:
      return "SC";
    case Algorithm::kBuddy:
      return "BU";
  }
  return "unknown";
}

std::unique_ptr<CompanionDiscoverer> MakeDiscoverer(
    Algorithm algorithm, const DiscoveryParams& params) {
  TCOMP_CHECK_GT(params.cluster.epsilon, 0.0);
  TCOMP_CHECK_GT(params.cluster.mu, 0);
  TCOMP_CHECK_GT(params.size_threshold, 0);
  switch (algorithm) {
    case Algorithm::kClusteringIntersection:
      return std::make_unique<ClusteringIntersectionDiscoverer>(params);
    case Algorithm::kSmartClosed:
      return std::make_unique<SmartClosedDiscoverer>(params);
    case Algorithm::kBuddy:
      return std::make_unique<BuddyDiscoverer>(params);
  }
  TCOMP_LOG(FATAL) << "unknown algorithm";
  return nullptr;
}

}  // namespace tcomp
