#ifndef TCOMP_BASELINES_CONVOY_H_
#define TCOMP_BASELINES_CONVOY_H_

#include <cstdint>
#include <vector>

#include "core/dbscan.h"
#include "core/snapshot.h"
#include "core/types.h"
#include "core/stage.h"

namespace tcomp {

/// Parameters of offline convoy discovery (Jeung, Yiu, Zhou, Jensen,
/// Shen — VLDB 2008): a convoy is a group of ≥ min_objects objects
/// density-connected in every snapshot of a *consecutive* interval of
/// length ≥ min_lifetime. Convoys sit between companions (streaming,
/// reported incrementally) and swarms (non-consecutive support).
struct ConvoyParams {
  DbscanParams cluster;
  int min_objects = 10;   // m
  int min_lifetime = 10;  // k, in snapshots
  /// External per-snapshot clustering backend (a test seam: the tests
  /// inject the reference Dbscan); empty uses the built-in
  /// SnapshotClusterer, in `cluster.threads` stripes. Must obey the
  /// Clustering determinism spec of core/dbscan.h — convoy products are
  /// then identical by construction (differential-tested).
  ClusterProvider cluster_provider;
};

/// A maximal convoy: `objects` were density-connected in every snapshot
/// of [begin, end], the interval cannot be extended, and no object
/// superset shares a covering interval.
struct Convoy {
  ObjectSet objects;
  int32_t begin = 0;
  int32_t end = 0;

  int32_t lifetime() const { return end - begin + 1; }
};

struct ConvoyStats {
  int64_t distance_ops = 0;
  int64_t intersections = 0;
  int64_t peak_candidates = 0;
};

/// CMC-style convoy discovery: sweep the stream once, maintain candidate
/// (object set, start) pairs, intersect them with each snapshot's density
/// clusters, and emit a candidate as a convoy when it stops extending (or
/// at end-of-stream) with lifetime ≥ k. Outputs are maximal: dominated
/// convoys (subset objects AND covered interval) are filtered.
///
/// This is the whole-dataset algorithm the paper's CI baseline adapts to
/// streams; unlike CI it reports exact lifetimes [begin, end] but cannot
/// emit anything until a convoy *ends*.
///
/// `stage_sink`, if non-null, receives per-snapshot cluster / intersect /
/// closure durations under the same stage names the incremental
/// discoverers report, so convoy-baseline runs slot into the same
/// dashboards. Timing only; products are unaffected.
std::vector<Convoy> DiscoverConvoys(const SnapshotStream& stream,
                                    const ConvoyParams& params,
                                    ConvoyStats* stats = nullptr,
                                    StageTimerSink* stage_sink = nullptr);

}  // namespace tcomp

#endif  // TCOMP_BASELINES_CONVOY_H_
