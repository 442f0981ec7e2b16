#include "baselines/convoy.h"

#include <algorithm>
#include <map>

#include "util/label_rows.h"
#include "util/logging.h"
#include "util/sorted_ops.h"
#include "util/timer.h"

namespace tcomp {
namespace {

struct Cand {
  ObjectSet objects;
  int32_t begin = 0;
  int32_t last = 0;  // last snapshot the set was co-clustered
};

}  // namespace

std::vector<Convoy> DiscoverConvoys(const SnapshotStream& stream,
                                    const ConvoyParams& params,
                                    ConvoyStats* stats,
                                    StageTimerSink* stage_sink) {
  TCOMP_CHECK_GT(params.min_objects, 0);
  TCOMP_CHECK_GT(params.min_lifetime, 0);
  const size_t m = static_cast<size_t>(params.min_objects);
  ConvoyStats local;

  std::vector<Cand> candidates;
  std::vector<Convoy> results;

  auto emit = [&](const Cand& v) {
    if (v.last - v.begin + 1 >= params.min_lifetime) {
      results.push_back(Convoy{v.objects, v.begin, v.last});
    }
  };

  // One per call: its scratch is reused across this stream's snapshots.
  SnapshotClusterer clusterer(params.cluster);
  LabelTable cluster_labels;  // rebuilt per snapshot, storage reused
  std::vector<int32_t> row;
  std::vector<uint32_t> counts;

  for (size_t t = 0; t < stream.size(); ++t) {
    Timer cluster_timer;
    cluster_timer.Start();
    Clustering clustering =
        params.cluster_provider
            ? params.cluster_provider(stream[t], &local.distance_ops)
            : clusterer.Cluster(stream[t], &local.distance_ops);
    cluster_timer.Stop();
    if (stage_sink != nullptr) {
      stage_sink->RecordStage(Stage::kCluster, cluster_timer.Seconds());
    }
    Timer intersect_timer;
    intersect_timer.Start();
    const int32_t now = static_cast<int32_t>(t);

    // Products, deduplicated by object set keeping the earliest begin
    // (the longest-covering chain dominates).
    std::map<ObjectSet, Cand> next;
    auto add = [&](ObjectSet objects, int32_t begin) {
      auto it = next.find(objects);
      if (it == next.end()) {
        Cand c{std::move(objects), begin, now};
        next.emplace(c.objects, c);
      } else if (begin < it->second.begin) {
        it->second.begin = begin;
      }
    };

    // Label-row fast path, as in the CI discoverer: with a dense id
    // universe each candidate gathers its members' cluster labels once,
    // and each candidate×cluster intersection is a compare-scan of that
    // row for the cluster's label, built into a set only when it
    // reaches m.
    const bool use_rows =
        !candidates.empty() &&
        cluster_labels.Assign(stream[t].ids(), clustering.clusters);
    counts.resize(use_rows ? clustering.clusters.size() : 0);
    ObjectSet inter;  // reused across pairs; moved out only when kept

    for (const Cand& v : candidates) {
      if (use_rows) {
        cluster_labels.Gather(v.objects, &row);
        CountLabels(row.data(), row.size(), counts.size(), counts.data());
      }
      bool continued_whole = false;
      for (size_t k = 0; k < clustering.clusters.size(); ++k) {
        ++local.intersections;
        if (use_rows) {
          if (counts[k] < m) continue;
          SelectLabel(v.objects, row, static_cast<int32_t>(k), &inter);
        } else {
          SortedIntersect(v.objects, clustering.clusters[k], &inter);
          if (inter.size() < m) continue;
        }
        if (inter.size() == v.objects.size()) continued_whole = true;
        add(std::move(inter), v.begin);
        inter = ObjectSet();
      }
      // The set broke apart this snapshot: its interval is maximal in
      // time — report it (subset products keep running with the same
      // begin, so object-maximality is resolved by the final filter).
      if (!continued_whole) emit(v);
    }

    intersect_timer.Stop();

    // Fresh clusters open new chains unless dominated by a running one
    // (a subset of a running candidate has been co-clustered for that
    // candidate's whole interval already). The dominance scan is the
    // convoy analogue of the closure check, so it reports as kClosure.
    Timer closure_timer;
    closure_timer.Start();
    for (const ObjectSet& c : clustering.clusters) {
      if (c.size() < m) continue;
      bool dominated = false;
      for (const auto& [objects, cand] : next) {
        if (objects.size() >= c.size() && SortedIsSubset(c, objects)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) add(c, now);
    }
    closure_timer.Stop();
    if (stage_sink != nullptr) {
      stage_sink->RecordStage(Stage::kIntersect, intersect_timer.Seconds());
      stage_sink->RecordStage(Stage::kClosure, closure_timer.Seconds());
    }

    candidates.clear();
    candidates.reserve(next.size());
    int64_t stored = 0;
    for (auto& [objects, cand] : next) {
      stored += static_cast<int64_t>(objects.size());
      candidates.push_back(std::move(cand));
    }
    local.peak_candidates = std::max(local.peak_candidates, stored);
  }
  // End of stream closes every running chain.
  for (const Cand& v : candidates) emit(v);

  // Maximality filter: drop convoys dominated in both objects and time.
  std::vector<Convoy> maximal;
  for (size_t i = 0; i < results.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < results.size() && !dominated; ++j) {
      if (i == j) continue;
      const Convoy& a = results[i];
      const Convoy& b = results[j];
      bool subset = a.objects.size() <= b.objects.size() &&
                    SortedIsSubset(a.objects, b.objects);
      bool covered = b.begin <= a.begin && a.end <= b.end;
      if (subset && covered) {
        // Strict domination, or tie broken toward the earlier entry.
        if (a.objects != b.objects || a.begin != b.begin ||
            a.end != b.end || j < i) {
          dominated = true;
        }
      }
    }
    if (!dominated) maximal.push_back(results[i]);
  }

  std::sort(maximal.begin(), maximal.end(),
            [](const Convoy& a, const Convoy& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.end != b.end) return a.end < b.end;
              return a.objects < b.objects;
            });
  if (stats != nullptr) {
    stats->distance_ops += local.distance_ops;
    stats->intersections += local.intersections;
    stats->peak_candidates =
        std::max(stats->peak_candidates, local.peak_candidates);
  }
  return maximal;
}

}  // namespace tcomp
