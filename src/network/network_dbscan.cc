#include "network/network_dbscan.h"

#include <algorithm>
#include <unordered_map>

#include "core/smart_closed.h"
#include "util/logging.h"
#include "util/sorted_ops.h"

namespace tcomp {

Clustering NetworkDbscan(const Snapshot& snapshot, const RoadGraph& graph,
                         const DbscanParams& params,
                         NetworkDbscanStats* stats) {
  const size_t n = snapshot.size();
  const double eps = params.epsilon;
  NetworkDbscanStats local;

  // Map-match every object and bucket by edge.
  std::vector<NetworkPosition> pos(n);
  std::unordered_map<EdgeId, std::vector<uint32_t>> by_edge;
  for (uint32_t i = 0; i < n; ++i) {
    pos[i] = graph.Snap(snapshot.pos(i));
    ++local.snap_operations;
    by_edge[pos[i].edge].push_back(i);
  }

  // Rows under network distance, each evaluated from its own source (so
  // they may be asymmetric), appended to the shared neighbor table.
  std::vector<uint32_t> offsets(1, 0);
  std::vector<uint32_t> entries;
  offsets.reserve(n + 1);
  std::vector<uint32_t> row;
  for (uint32_t i = 0; i < n; ++i) {
    row.assign(1, i);

    // Same-edge neighbors: direct along-edge distance. (A detour through
    // the endpoints cannot beat the direct distance on a shortest-path
    // metric with positive edge lengths, but the via-endpoint pass below
    // covers exotic multigraphs anyway.)
    for (uint32_t j : by_edge[pos[i].edge]) {
      if (j == i) continue;
      ++local.distance_evaluations;
      if (std::abs(pos[i].offset - pos[j].offset) <= eps) {
        row.push_back(j);
      }
    }

    // Cross-edge neighbors through one bounded expansion.
    ++local.expansions;
    std::unordered_map<NodeId, double> node_dist;
    for (const auto& [node, d] : graph.NodesWithin(pos[i], eps)) {
      node_dist[node] = d;
    }
    // tcomp-lint: allow(unordered-iter): the row is SortUnique'd below
    for (const auto& [node, d] : node_dist) {
      for (EdgeId eid : graph.EdgesAt(node)) {
        auto it = by_edge.find(eid);
        if (it == by_edge.end()) continue;
        const RoadGraph::Edge& edge = graph.edge(eid);
        for (uint32_t j : it->second) {
          if (j == i || pos[j].edge == pos[i].edge) continue;
          double via = edge.from == node
                           ? d + pos[j].offset
                           : d + edge.length - pos[j].offset;
          ++local.distance_evaluations;
          if (via <= eps) row.push_back(j);
        }
      }
    }
    // Two endpoints can both reach j; the row must list it once.
    SortUnique(&row);
    entries.insert(entries.end(), row.begin(), row.end());
    offsets.push_back(static_cast<uint32_t>(entries.size()));
  }

  if (stats != nullptr) {
    stats->snap_operations += local.snap_operations;
    stats->expansions += local.expansions;
    stats->distance_evaluations += local.distance_evaluations;
  }
  return internal::BuildClusteringFromCores(
      snapshot, NeighborTable{n, offsets.data(), entries.data()}, params.mu);
}

std::unique_ptr<CompanionDiscoverer> MakeNetworkDiscoverer(
    const RoadGraph& graph, const DiscoveryParams& params) {
  graph.Freeze();
  auto discoverer = std::make_unique<SmartClosedDiscoverer>(params);
  // Network distance evaluations are NetworkDbscanStats', not the
  // discoverer's distance_ops.
  discoverer->SetClusterProvider(
      [&graph, cluster = params.cluster](const Snapshot& snapshot,
                                         int64_t* /*distance_ops*/) {
        return NetworkDbscan(snapshot, graph, cluster);
      });
  return discoverer;
}

}  // namespace tcomp
