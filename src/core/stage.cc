#include "core/stage.h"

namespace tcomp {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kIngestAdmission:
      return "ingest_admission";
    case Stage::kReorderHold:
      return "reorder_hold";
    case Stage::kSnapshotClose:
      return "snapshot_close";
    case Stage::kMaintain:
      return "maintain";
    case Stage::kCluster:
      return "cluster";
    case Stage::kEpsFilter:
      return "eps_filter";
    case Stage::kIntersect:
      return "intersect";
    case Stage::kClosure:
      return "closure";
    case Stage::kCheckpointWrite:
      return "checkpoint_write";
    case Stage::kFrameDecode:
      return "frame_decode";
    case Stage::kConnFlush:
      return "conn_flush";
  }
  return "unknown";
}

}  // namespace tcomp
