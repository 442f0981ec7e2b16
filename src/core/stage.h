#ifndef TCOMP_CORE_STAGE_H_
#define TCOMP_CORE_STAGE_H_

namespace tcomp {

/// The pipeline stages the paper's evaluation measures (Section VII,
/// Figs. 14–19). Every discoverer — CI, SC, BU — and the convoy baseline
/// report the same stage names, so dashboards and the slow-snapshot log
/// read identically whichever algorithm is serving. A stage an algorithm
/// does not have (CI has no closure check, only BU maintains buddies)
/// simply records no samples; the series still exists, with count 0.
enum class Stage {
  kIngestAdmission,  // one admission call: Ingest() of a record (incl.
                     // kBlock stall) or TryIngestBatch() of a frame
  kReorderHold,      // watermark reorder buffer: arrival → release
  kSnapshotClose,    // window close → discoverer done (whole snapshot)
  kMaintain,         // M-step: buddy split/merge maintenance (BU)
  kCluster,          // C-step: density clustering
  kEpsFilter,        // ε-neighborhood sweep inside the C-step: the
                     // sweep (in its stripes) and the neighbor table.
                     // Nests inside kCluster; zero samples on paths that
                     // do not time their sweep separately.
  kIntersect,        // I-step: candidate × cluster intersections
  kClosure,          // closedness checks on new clusters (SC, BU, convoy)
  kCheckpointWrite,  // checkpoint serialization + file write
  // Event-loop connection layer (src/service/server.cc): zero samples
  // unless `serve` is running. Both sit outside kSnapshotClose.
  kFrameDecode,      // socket bytes → parsed requests (text or binary)
  kConnFlush,        // queued response bytes → socket, one drain attempt
};
inline constexpr int kStageCount = 11;

/// Stable lowercase identifier used as the `stage` label value.
const char* StageName(Stage stage);

/// Where instrumented code reports per-snapshot stage durations. The
/// interface is deliberately minimal so core algorithms depend only on
/// this header, not on any metrics backend; a null sink (the default in
/// CompanionDiscoverer) makes instrumentation a pointer test. The
/// MetricsRegistry-backed implementation lives in obs/stage_timer.h —
/// the dependency points upward (obs → core), never back down.
class StageTimerSink {
 public:
  virtual ~StageTimerSink() = default;
  virtual void RecordStage(Stage stage, double seconds) = 0;
};

}  // namespace tcomp

#endif  // TCOMP_CORE_STAGE_H_
