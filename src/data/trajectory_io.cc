#include "data/trajectory_io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

#include "util/text_fields.h"

namespace tcomp {
namespace {

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

/// A text file read in kReadBlockBytes blocks through one buffer, never
/// slurped: memory stays one block plus the longest line, whatever the
/// file size.
class BlockReader {
 public:
  Status Open(const std::string& path) {
    path_ = path;
    file_.reset(std::fopen(path.c_str(), "rb"));
    if (!file_) return Status::IoError("cannot open " + path);
    // Not zeroed: a page of the block is touched only once a read fills
    // it, so a small file costs no more memory than its size.
    block_ = std::make_unique_for_overwrite<char[]>(kReadBlockBytes);
    return Status::OK();
  }

  /// An upper bound on the line count of a regular file, from a first
  /// pass that counts its '\n' bytes and then rewinds; 0 for input that
  /// cannot seek (a pipe, a terminal), which is read in one pass.
  Status CountLines(size_t* lines) {
    *lines = 0;
    struct stat st;
    if (fstat(fileno(file_.get()), &st) != 0 || !S_ISREG(st.st_mode)) {
      return Status::OK();
    }
    size_t n = 0;
    while ((n = Read()) > 0) {
      *lines += static_cast<size_t>(
          std::count(block_.get(), block_.get() + n, '\n'));
    }
    if (std::ferror(file_.get())) return ReadError();
    if (std::fseek(file_.get(), 0, SEEK_SET) != 0) {
      return Status::IoError("cannot rewind " + path_);
    }
    ++*lines;  // a last line without '\n'
    return Status::OK();
  }

  /// Calls `on_line(line, lineno)` for every line, without its '\n'; a
  /// line that spans blocks is carried across them. Stops at the first
  /// error `on_line` returns. A hard read error is IoError, never a
  /// silently truncated file.
  template <typename OnLine>
  Status ForEachLine(OnLine on_line) {
    std::string carry;
    int64_t lineno = 0;
    size_t n = 0;
    while ((n = Read()) > 0) {
      const char* p = block_.get();
      const char* end = p + n;
      while (const char* nl = static_cast<const char*>(
                 std::memchr(p, '\n', static_cast<size_t>(end - p)))) {
        std::string_view line(p, static_cast<size_t>(nl - p));
        if (!carry.empty()) {
          carry.append(p, nl);
          line = carry;
        }
        TCOMP_RETURN_IF_ERROR(on_line(line, ++lineno));
        carry.clear();
        p = nl + 1;
      }
      carry.append(p, end);
    }
    if (std::ferror(file_.get())) return ReadError();
    if (carry.empty()) return Status::OK();
    return on_line(std::string_view(carry), ++lineno);
  }

 private:
  size_t Read() {
    return std::fread(block_.get(), 1, kReadBlockBytes, file_.get());
  }
  Status ReadError() const {
    return Status::IoError("read error before end of " + path_);
  }

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::unique_ptr<char[]> block_;
};

/// Empty lines (a lone CR included) and '#' comment lines carry no row.
bool IsSkippedLine(std::string_view line) {
  return line.empty() || line == "\r" || line[0] == '#';
}

/// Splits a comma-separated row (no quoting: trajectory files do not use
/// it) into at most `max_fields` fields. Returns the field count, or
/// max_fields + 1 when the row has more.
size_t SplitRow(std::string_view row, std::string_view* fields,
                size_t max_fields) {
  size_t n = 0;
  for (;;) {
    size_t comma = row.find(',');
    if (n == max_fields) return max_fields + 1;
    fields[n++] = row.substr(0, comma);
    if (comma == std::string_view::npos) return n;
    row.remove_prefix(comma + 1);
  }
}

Status RowError(const std::string& path, int64_t lineno,
                const std::string& what) {
  return Status::Corruption(path + ":" + std::to_string(lineno) + ": " +
                            what);
}

Status FieldCountError(const std::string& path, int64_t lineno,
                       size_t found, size_t expected) {
  return RowError(path, lineno,
                  "expected " + std::to_string(expected) + " fields, found " +
                      (found > expected ? "more" : std::to_string(found)));
}

/// `field` is 1-based, as a user counts columns.
Status FieldError(const std::string& path, int64_t lineno, int field,
                  const char* name, std::string_view text,
                  const char* expected) {
  return RowError(path, lineno,
                  "field " + std::to_string(field) + " (" + name + ") '" +
                      std::string(text) + "' is not " + expected);
}

constexpr const char* kId = "a decimal uint32";
constexpr const char* kFinite = "a finite number";

/// A header row names the four columns: no field of it is empty or
/// begins a number. A row such as `nan,0,1,2` is therefore a record with
/// a bad id, not a header.
bool IsHeaderRow(const std::string_view (&fields)[4]) {
  for (std::string_view field : fields) {
    field = TrimBlanks(field);
    if (field.empty()) return false;
    char c = field[0];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.') {
      return false;
    }
  }
  return true;
}

}  // namespace

Status ReadRecordCsv(const std::string& path,
                     std::vector<TrajectoryRecord>* records) {
  BlockReader reader;
  TCOMP_RETURN_IF_ERROR(reader.Open(path));
  size_t lines = 0;
  TCOMP_RETURN_IF_ERROR(reader.CountLines(&lines));
  records->reserve(records->size() + lines);
  bool header_allowed = true;
  return reader.ForEachLine([&](std::string_view line,
                                int64_t lineno) -> Status {
    if (IsSkippedLine(line)) return Status::OK();
    std::string_view f[4];
    size_t n = SplitRow(line, f, 4);
    if (n != 4) return FieldCountError(path, lineno, n, 4);
    if (header_allowed && IsHeaderRow(f)) {
      header_allowed = false;
      return Status::OK();
    }
    header_allowed = false;
    TrajectoryRecord r;
    if (!ParseIdField(f[0], &r.object)) {
      return FieldError(path, lineno, 1, "object id", f[0], kId);
    }
    if (!ParseFiniteField(f[1], &r.timestamp)) {
      return FieldError(path, lineno, 2, "timestamp", f[1], kFinite);
    }
    if (!ParseFiniteField(f[2], &r.pos.x)) {
      return FieldError(path, lineno, 3, "x", f[2], kFinite);
    }
    if (!ParseFiniteField(f[3], &r.pos.y)) {
      return FieldError(path, lineno, 4, "y", f[3], kFinite);
    }
    records->push_back(r);
    return Status::OK();
  });
}

Status WriteRecordCsv(const std::string& path,
                      const std::vector<TrajectoryRecord>& records) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# object_id,timestamp,x,y\n";
  char buf[160];
  for (const TrajectoryRecord& r : records) {
    std::snprintf(buf, sizeof(buf), "%u,%.3f,%.3f,%.3f\n", r.object,
                  r.timestamp, r.pos.x, r.pos.y);
    out << buf;
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status ReadGeoLifePlt(const std::string& path, ObjectId object,
                      std::vector<GpsRecord>* records) {
  BlockReader reader;
  TCOMP_RETURN_IF_ERROR(reader.Open(path));
  return reader.ForEachLine([&](std::string_view line,
                                int64_t lineno) -> Status {
    // GeoLife .plt files carry six header lines.
    if (lineno <= 6 || IsSkippedLine(line)) return Status::OK();
    std::string_view f[5];
    size_t n = SplitRow(line, f, 5);
    if (n < 5) {
      return RowError(path, lineno,
                      "expected at least 5 fields, found " +
                          std::to_string(n));
    }
    GpsRecord r;
    r.object = object;
    double days = 0.0;
    if (!ParseFiniteField(f[0], &r.pos.lat)) {
      return FieldError(path, lineno, 1, "latitude", f[0], kFinite);
    }
    if (!ParseFiniteField(f[1], &r.pos.lon)) {
      return FieldError(path, lineno, 2, "longitude", f[1], kFinite);
    }
    if (!ParseFiniteField(f[4], &days)) {
      return FieldError(path, lineno, 5, "serial day", f[4], kFinite);
    }
    r.timestamp = days * 86400.0;
    records->push_back(r);
    return Status::OK();
  });
}

namespace {

/// Parses "YYYY-MM-DD HH:MM:SS" into seconds since the Unix epoch,
/// treating the wall time as UTC. Returns false on malformed input.
/// Self-contained civil-time math (days-from-civil algorithm) — no
/// dependence on the process time zone.
bool ParseDateTime(const std::string& text, double* seconds) {
  int y, mo, d, h, mi, s;
  if (std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d", &y, &mo, &d, &h, &mi,
                  &s) != 6) {
    return false;
  }
  if (mo < 1 || mo > 12 || d < 1 || d > 31 || h < 0 || h > 23 || mi < 0 ||
      mi > 59 || s < 0 || s > 60) {
    return false;
  }
  // Howard Hinnant's days_from_civil.
  int64_t yy = y - (mo <= 2 ? 1 : 0);
  int64_t era = (yy >= 0 ? yy : yy - 399) / 400;
  int64_t yoe = yy - era * 400;
  int64_t doy = (153 * (mo + (mo > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  int64_t days = era * 146097 + doe - 719468;
  *seconds = static_cast<double>(days * 86400 + h * 3600 + mi * 60 + s);
  return true;
}

}  // namespace

Status ReadTDriveTxt(const std::string& path,
                     std::vector<GpsRecord>* records) {
  BlockReader reader;
  TCOMP_RETURN_IF_ERROR(reader.Open(path));
  return reader.ForEachLine([&](std::string_view line,
                                int64_t lineno) -> Status {
    if (IsSkippedLine(line)) return Status::OK();
    std::string_view f[4];
    size_t n = SplitRow(line, f, 4);
    if (n != 4) return FieldCountError(path, lineno, n, 4);
    GpsRecord r;
    if (!ParseIdField(f[0], &r.object)) {
      return FieldError(path, lineno, 1, "taxi id", f[0], kId);
    }
    if (!ParseDateTime(std::string(f[1]), &r.timestamp)) {
      return FieldError(path, lineno, 2, "time", f[1],
                        "a YYYY-MM-DD HH:MM:SS time");
    }
    if (!ParseFiniteField(f[2], &r.pos.lon)) {
      return FieldError(path, lineno, 3, "longitude", f[2], kFinite);
    }
    if (!ParseFiniteField(f[3], &r.pos.lat)) {
      return FieldError(path, lineno, 4, "latitude", f[3], kFinite);
    }
    records->push_back(r);
    return Status::OK();
  });
}

std::vector<TrajectoryRecord> ProjectGpsRecords(
    const std::vector<GpsRecord>& records, LatLon reference) {
  LocalProjection projection(reference);
  std::vector<TrajectoryRecord> out;
  out.reserve(records.size());
  for (const GpsRecord& r : records) {
    out.push_back(
        TrajectoryRecord{r.object, r.timestamp, projection.Project(r.pos)});
  }
  return out;
}

std::vector<TrajectoryRecord> ProjectGpsRecords(
    const std::vector<GpsRecord>& records) {
  if (records.empty()) return {};
  return ProjectGpsRecords(records, records.front().pos);
}

std::vector<TrajectoryRecord> StreamToRecords(const SnapshotStream& stream,
                                              double seconds_per_snapshot) {
  std::vector<TrajectoryRecord> out;
  out.reserve(static_cast<size_t>(TotalRecords(stream)));
  for (size_t i = 0; i < stream.size(); ++i) {
    const Snapshot& s = stream[i];
    double ts = static_cast<double>(i) * seconds_per_snapshot;
    for (size_t k = 0; k < s.size(); ++k) {
      out.push_back(TrajectoryRecord{s.id(k), ts, s.pos(k)});
    }
  }
  return out;
}

}  // namespace tcomp
