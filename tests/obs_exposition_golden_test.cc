// Golden-file test for the Prometheus-style exposition format. The
// format is a public surface (QUERY metrics payload, scrape targets), so
// any byte-level change must be deliberate: regenerate with
//   TCOMP_UPDATE_GOLDEN=1 ./obs_exposition_golden_test
// and review the diff like any other contract change.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

#ifndef TCOMP_GOLDEN_DIR
#error "TCOMP_GOLDEN_DIR must be defined by the build"
#endif

namespace tcomp {
namespace {

std::string GoldenPath() {
  return std::string(TCOMP_GOLDEN_DIR) + "/metrics_exposition.golden";
}

/// A registry with one instrument of each kind plus the full stage-sink
/// series set, all with fixed values — every byte of the rendering is
/// deterministic.
std::string RenderFixture() {
  MetricsRegistry registry;
  MetricsStageSink sink(&registry);
  registry.GetCounter("tcomp_records_ingested_total", "",
                      "Records accepted by Ingest()")
      ->Set(12345);
  registry
      .GetCounter("tcomp_queue_shed_total", "", "Records shed under load")
      ->Set(7);
  registry.GetGauge("tcomp_queue_depth", "", "Ingest queue depth")->Set(42);
  // A labeled gauge family (the label set and its rendering are part of
  // the scrape contract, same as stage="...").
  registry
      .GetGauge("tcomp_shard_queue_depth", "shard=\"0\"",
                "Per-shard task queue depth at sampling time")
      ->Set(0);
  registry
      .GetGauge("tcomp_shard_queue_depth", "shard=\"1\"",
                "Per-shard task queue depth at sampling time")
      ->Set(3);
  // One sample per interesting histogram region: bucket 0, a mid bucket,
  // and the overflow slot.
  sink.RecordStage(Stage::kCluster, 0.5e-6);
  sink.RecordStage(Stage::kCluster, 3e-6);
  sink.RecordStage(Stage::kCluster, 100.0);
  sink.RecordStage(Stage::kSnapshotClose, 1e-3);
  // Two stages nested inside others get a sample each, so their
  // rendered buckets are pinned too.
  sink.RecordStage(Stage::kEpsFilter, 2e-4);
  sink.RecordStage(Stage::kClosure, 5e-5);
  return registry.ExpositionText();
}

TEST(ExpositionGoldenTest, MatchesGoldenFile) {
  std::string rendered = RenderFixture();
  if (std::getenv("TCOMP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    out << rendered;
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    GTEST_SKIP() << "golden file regenerated";
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath();
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(rendered, want.str())
      << "exposition format drifted from the golden file; if intentional, "
         "regenerate with TCOMP_UPDATE_GOLDEN=1 and review the diff";
}

TEST(ExpositionGoldenTest, RenderingIsStableAcrossRepeats) {
  std::string first = RenderFixture();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(RenderFixture(), first);
}

}  // namespace
}  // namespace tcomp
