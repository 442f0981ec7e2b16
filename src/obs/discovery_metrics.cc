#include "obs/discovery_metrics.h"

namespace tcomp {

void ExportDiscoveryMetrics(const DiscoveryStats& stats,
                            int64_t companions_distinct,
                            MetricsRegistry* registry) {
  auto counter = [&](const char* name, const char* help, int64_t value) {
    registry->GetCounter(name, "", help)
        ->Set(static_cast<uint64_t>(value < 0 ? 0 : value));
  };
  auto gauge = [&](const char* name, const char* help, int64_t value) {
    registry->GetGauge(name, "", help)->Set(value);
  };
  counter("tcomp_snapshots_processed_total",
          "Snapshots fed through the discoverer", stats.snapshots);
  counter("tcomp_intersections_total",
          "Candidate x cluster intersection operations (Figs. 4/6/13)",
          stats.intersections);
  counter("tcomp_distance_ops_total",
          "Pairwise distance evaluations in the clustering stage",
          stats.distance_ops);
  counter("tcomp_companions_reported_total",
          "Companion qualification events before deduplication",
          stats.companions_reported);
  counter("tcomp_buddy_pairs_checked_total",
          "Buddy pairs examined by Lemma 3 (BU only)",
          stats.buddy_pairs_checked);
  counter("tcomp_buddy_pairs_pruned_total",
          "Buddy pairs pruned by Lemma 3 (BU only)",
          stats.buddy_pairs_pruned);
  counter("tcomp_buddies_total", "Sum of per-snapshot buddy counts (BU only)",
          stats.buddies_total);
  counter("tcomp_buddies_unchanged_total",
          "Sum of per-snapshot unchanged buddies (BU only)",
          stats.buddies_unchanged);
  // The three tcomp_cluster_* series stay for the benchmark ledger until
  // it retires them (DiscoveryStats).
  counter("tcomp_cluster_reuse_total",
          "Always 0: no neighborhood state is carried between snapshots",
          stats.cluster_reuse);
  counter("tcomp_cluster_dirty_total",
          "Object-snapshots clustered by the built-in per-snapshot sweep",
          stats.cluster_dirty);
  counter("tcomp_cluster_full_rebuilds_total",
          "Snapshots clustered by the built-in per-snapshot sweep",
          stats.cluster_full_rebuilds);
  counter("tcomp_soa_batches_total",
          "Batches dispatched to the SoA eps-filter kernels",
          stats.soa_batches);
  counter("tcomp_soa_lanes_total",
          "Candidate lanes streamed through the SoA eps-filter kernels",
          stats.soa_lanes);
  gauge("tcomp_candidate_objects_peak",
        "Peak stored candidate-set size in objects (Figs. 15b-17b)",
        stats.candidate_objects_peak);
  gauge("tcomp_candidate_objects_last",
        "Candidate-set size after the most recent snapshot",
        stats.candidate_objects_last);
  gauge("tcomp_companions_distinct",
        "Deduplicated companion-log size", companions_distinct);
}

}  // namespace tcomp
