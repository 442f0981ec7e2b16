#ifndef TCOMP_TESTS_TEST_UTIL_H_
#define TCOMP_TESTS_TEST_UTIL_H_

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/dbscan.h"
#include "core/discoverer.h"
#include "core/snapshot.h"
#include "core/types.h"
#include "util/logging.h"
#include "util/random.h"

namespace tcomp {
namespace testing_util {

/// The reference O(n²) Dbscan as a cluster provider: the oracle the
/// built-in clustering paths (SnapshotClusterer, SoA kernels, shard
/// engine) are differentially tested against.
inline ClusterProvider ReferenceDbscanProvider(const DbscanParams& params) {
  return [params](const Snapshot& snapshot, int64_t* distance_ops) {
    return Dbscan(snapshot, params, distance_ops);
  };
}

/// Same trajectories, object ids multiplied by `stride`. With a stride
/// far above 64 the id universe is too sparse for BitsetProfitable, so
/// every set-algebra step takes the sorted-merge path where the dense
/// stream takes the label-table path; divide an output id by `stride` to map
/// it back.
inline SnapshotStream SparsifyIds(const SnapshotStream& stream,
                                  ObjectId stride) {
  SnapshotStream out;
  out.reserve(stream.size());
  for (const Snapshot& s : stream) {
    std::vector<ObjectPosition> pos;
    pos.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
      pos.push_back(ObjectPosition{s.id(i) * stride, s.pos(i)});
    }
    out.push_back(Snapshot(std::move(pos), s.duration()));
  }
  return out;
}

/// The row-based finisher the library used before the neighbor table,
/// kept as the oracle for internal::BuildClusteringFromCores: rows must
/// be ascending, so a border's first core hit is its lowest-index core
/// neighbor; clusters are numbered through a root → label map.
inline Clustering RowFinisher(const Snapshot& snapshot,
                              const std::vector<bool>& core,
                              const std::vector<std::vector<uint32_t>>& rows) {
  const size_t n = snapshot.size();
  Clustering result;
  result.labels.assign(n, -1);
  result.core = core;
  internal::DisjointSets sets(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    for (uint32_t j : rows[i]) {
      if (core[j]) sets.Union(i, j);
    }
  }
  std::vector<uint32_t> attach_to(n, 0);
  std::vector<bool> attached(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    if (core[i]) {
      attach_to[i] = i;
      attached[i] = true;
      continue;
    }
    for (uint32_t j : rows[i]) {
      if (core[j]) {
        attach_to[i] = j;
        attached[i] = true;
        break;
      }
    }
  }
  std::map<uint32_t, int32_t> root_to_label;
  for (uint32_t i = 0; i < n; ++i) {
    if (!attached[i]) continue;
    const uint32_t root = sets.Find(attach_to[i]);
    auto [it, fresh] = root_to_label.emplace(
        root, static_cast<int32_t>(result.clusters.size()));
    if (fresh) result.clusters.emplace_back();
    result.labels[i] = it->second;
    result.clusters[static_cast<size_t>(it->second)].push_back(
        snapshot.id(i));
  }
  return result;
}

/// Row lists as a NeighborTable, stored in `offsets`/`entries` (which
/// must outlive the table). Rows keep their order.
inline NeighborTable TableFromRows(
    const std::vector<std::vector<uint32_t>>& rows,
    std::vector<uint32_t>* offsets, std::vector<uint32_t>* entries) {
  offsets->assign(1, 0);
  entries->clear();
  for (const std::vector<uint32_t>& row : rows) {
    entries->insert(entries->end(), row.begin(), row.end());
    offsets->push_back(static_cast<uint32_t>(entries->size()));
  }
  return NeighborTable{rows.size(), offsets->data(), entries->data()};
}

/// Core flags by the finisher's rule: |row| ≥ μ.
inline std::vector<bool> CoreFromRows(
    const std::vector<std::vector<uint32_t>>& rows, int mu) {
  std::vector<bool> core(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    core[i] = static_cast<int64_t>(rows[i].size()) >= mu;
  }
  return core;
}

/// A discoverer's serialized state with the wall-clock fields of the
/// "stats" line (its last three tokens) zeroed, and — when
/// `products_only` — also the clustering-dependent counters
/// (distance_ops, cluster reuse/dirty/full rebuilds). The full form must
/// match bit for bit between a run and its resumed twin; the product form
/// between runs that cluster differently (built-in vs a provider) but
/// must decide the same companions, candidates, and intersections.
inline std::string NormalizedState(const CompanionDiscoverer& d,
                                   bool products_only = false) {
  std::ostringstream raw;
  Status st = d.SaveState(raw);
  TCOMP_CHECK(st.ok()) << st.ToString();
  std::istringstream in(raw.str());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("stats ", 0) == 0) {
      std::istringstream fields(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (fields >> tok) tokens.push_back(tok);
      // Layout: "stats" + 11 counters + reuse/dirty/rebuilds + 3 timings.
      TCOMP_CHECK_EQ(tokens.size(), 18u);
      std::vector<size_t> zeroed = {15, 16, 17};
      if (products_only) zeroed.insert(zeroed.end(), {3, 12, 13, 14});
      for (size_t i : zeroed) {
        tokens[i].assign(1, '0');  // `= "0"` trips GCC 12's -Wrestrict
      }
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (i > 0) out << ' ';
        out << tokens[i];
      }
      out << '\n';
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

/// A uniformly random snapshot of `n` objects in [0, extent)².
inline Snapshot RandomSnapshot(int n, double extent, Pcg32& rng,
                               double duration = 1.0) {
  std::vector<ObjectPosition> positions;
  positions.reserve(n);
  for (int i = 0; i < n; ++i) {
    positions.push_back(ObjectPosition{
        static_cast<ObjectId>(i),
        Point{rng.NextDouble(0.0, extent), rng.NextDouble(0.0, extent)}});
  }
  return Snapshot(std::move(positions), duration);
}

/// A clustered snapshot: `clusters` Gaussian blobs of `per_cluster`
/// objects (σ = spread) plus `noise` uniform objects.
inline Snapshot ClusteredSnapshot(int clusters, int per_cluster, int noise,
                                  double extent, double spread, Pcg32& rng,
                                  double duration = 1.0) {
  std::vector<ObjectPosition> positions;
  ObjectId next = 0;
  for (int c = 0; c < clusters; ++c) {
    Point center{rng.NextDouble(0.1 * extent, 0.9 * extent),
                 rng.NextDouble(0.1 * extent, 0.9 * extent)};
    for (int k = 0; k < per_cluster; ++k) {
      positions.push_back(ObjectPosition{
          next++, Point{center.x + spread * rng.NextGaussian(),
                        center.y + spread * rng.NextGaussian()}});
    }
  }
  for (int k = 0; k < noise; ++k) {
    positions.push_back(ObjectPosition{
        next++, Point{rng.NextDouble(0.0, extent),
                      rng.NextDouble(0.0, extent)}});
  }
  return Snapshot(std::move(positions), duration);
}

/// Builds a snapshot from explicit (id, x, y) triples.
inline Snapshot MakeSnapshot(
    const std::vector<std::tuple<ObjectId, double, double>>& items,
    double duration = 1.0) {
  std::vector<ObjectPosition> positions;
  positions.reserve(items.size());
  for (const auto& [id, x, y] : items) {
    positions.push_back(ObjectPosition{id, Point{x, y}});
  }
  return Snapshot(std::move(positions), duration);
}

}  // namespace testing_util
}  // namespace tcomp

#endif  // TCOMP_TESTS_TEST_UTIL_H_
