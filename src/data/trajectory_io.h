#ifndef TCOMP_DATA_TRAJECTORY_IO_H_
#define TCOMP_DATA_TRAJECTORY_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "stream/geo.h"
#include "stream/record.h"
#include "util/status.h"

namespace tcomp {

/// A GPS point as found in raw trajectory files (before projection).
struct GpsRecord {
  ObjectId object = 0;
  double timestamp = 0.0;  // seconds
  LatLon pos;
};

/// The record readers read in blocks of this many bytes (exposed so
/// tests can place a row across a block edge).
inline constexpr size_t kReadBlockBytes = size_t{1} << 20;

/// Reads a record CSV: one `object_id,timestamp,x,y` row per line, in the
/// field grammar of util/text_fields.h. The id is a decimal uint32; the
/// other three fields are finite doubles. Blanks around a field and a
/// trailing '\r' are allowed; empty lines and lines starting with '#' are
/// skipped anywhere. One header row of four column names (no field empty
/// or beginning a number) may come before the first record. Any other
/// row that is not exactly four valid fields is Corruption naming
/// `path:line` and the field. Appends to `*records`, sized once from a
/// newline count when `path` is a regular file; a pipe (`/dev/stdin`) is
/// read in one pass. A hard read error is IoError.
Status ReadRecordCsv(const std::string& path,
                     std::vector<TrajectoryRecord>* records);

/// Writes records as the CSV format ReadRecordCsv() accepts.
Status WriteRecordCsv(const std::string& path,
                      const std::vector<TrajectoryRecord>& records);

/// Reads one GeoLife .plt file (6 header lines; then
/// `lat,lon,0,altitude,serial_days,date,time` rows) as `object`'s
/// trajectory. Timestamps are the serial day converted to seconds.
Status ReadGeoLifePlt(const std::string& path, ObjectId object,
                      std::vector<GpsRecord>* records);

/// Reads one T-Drive taxi file (`taxi_id,YYYY-MM-DD HH:MM:SS,lon,lat`
/// rows, no header) — the paper's D1 source format. The taxi id in the
/// file is used as the object id, under the same uint32 grammar as a
/// record CSV's; timestamps become seconds since the
/// Unix epoch (the datetimes are treated as UTC — only differences
/// matter downstream).
Status ReadTDriveTxt(const std::string& path,
                     std::vector<GpsRecord>* records);

/// Projects GPS records into the local metric plane around the first
/// record (or a caller-provided reference).
std::vector<TrajectoryRecord> ProjectGpsRecords(
    const std::vector<GpsRecord>& records);
std::vector<TrajectoryRecord> ProjectGpsRecords(
    const std::vector<GpsRecord>& records, LatLon reference);

/// Flattens a snapshot stream into records (snapshot i → timestamp
/// i·seconds_per_snapshot), e.g. to exercise the sliding window or write
/// generated datasets out as CSV.
std::vector<TrajectoryRecord> StreamToRecords(const SnapshotStream& stream,
                                              double seconds_per_snapshot);

}  // namespace tcomp

#endif  // TCOMP_DATA_TRAJECTORY_IO_H_
