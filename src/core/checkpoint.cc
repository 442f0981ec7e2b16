#include "core/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace tcomp {
namespace {

constexpr char kMagic[] = "tcomp-checkpoint";
// Version 4: CI and SC write no `clusterer` section, since no clustering
// state outlives a snapshot. Version 3 added the `stream` section after
// the discoverer's, which carries the inactive-period filler. Every other
// version is refused: older files lack the filler, and a version-3 file
// would need its `clusterer` section skipped, which takes more code than
// refusing it.
constexpr int kVersion = 4;

}  // namespace

void WriteHexDouble(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out << buf;
}

bool ParseHexDouble(const std::string& token, double* out) {
  // strtod, because libstdc++'s istream hexfloat extraction is unreliable.
  const char* s = token.c_str();
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

Status SaveDiscoverer(const CompanionDiscoverer& discoverer,
                      std::ostream& out, const CheckpointSection* stream) {
  out << kMagic << ' ' << kVersion << ' ' << discoverer.name() << '\n';
  // 17 significant digits round-trip IEEE doubles exactly.
  out << std::setprecision(17);
  Status s = discoverer.SaveState(out);
  if (!s.ok()) return s;
  out << "stream " << (stream != nullptr ? 1 : 0) << '\n';
  if (stream != nullptr) stream->SaveState(out);
  out << "end\n";
  if (!out) return Status::IoError("checkpoint write failed");
  return Status::OK();
}

Status LoadDiscoverer(CompanionDiscoverer* discoverer, std::istream& in,
                      CheckpointSection* stream) {
  std::string magic, algo;
  int version = 0;
  if (!(in >> magic >> version >> algo)) {
    return Status::Corruption("checkpoint header unreadable");
  }
  if (magic != kMagic) {
    return Status::Corruption("not a tcomp checkpoint");
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version));
  }
  if (algo != discoverer->name()) {
    return Status::InvalidArgument(
        "checkpoint was written by algorithm " + algo + ", not " +
        discoverer->name());
  }
  Status s = discoverer->LoadState(in);
  if (!s.ok()) return s;
  std::string tag;
  int has_stream = 0;
  if (!(in >> tag >> has_stream) || tag != "stream" ||
      (has_stream != 0 && has_stream != 1)) {
    return Status::Corruption("expected 'stream' section");
  }
  if (has_stream == 1) {
    if (stream == nullptr) {
      return Status::InvalidArgument(
          "checkpoint carries stream state the caller cannot restore");
    }
    TCOMP_RETURN_IF_ERROR(stream->LoadState(in));
  }
  std::string tail;
  if (!(in >> tail) || tail != "end") {
    return Status::Corruption("checkpoint trailer missing");
  }
  return Status::OK();
}

Status SaveDiscovererToFile(const CompanionDiscoverer& discoverer,
                            const std::string& path,
                            const CheckpointSection* stream) {
  // Write-then-rename: a crash mid-write must never destroy the previous
  // good checkpoint at `path`. The record is written to a sibling .tmp
  // file and renamed into place only once it is complete; a failed or
  // interrupted save leaves at worst a stale .tmp behind, which the next
  // successful save overwrites.
  const std::string tmp = path + ".tmp";
  Status s;
  {
    std::ofstream out(tmp);
    if (!out) {
      return Status::IoError("cannot open " + tmp + " for writing");
    }
    s = SaveDiscoverer(discoverer, out, stream);
    if (s.ok()) {
      out.flush();
      if (!out) s = Status::IoError("checkpoint write to " + tmp + " failed");
    }
  }
  if (!s.ok()) {
    // Best-effort cleanup: the write failure is the error worth reporting;
    // a stale .tmp is harmless and overwritten by the next save.
    (void)std::remove(tmp.c_str());
    return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());  // best-effort, rename is the error
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status LoadDiscovererFromFile(CompanionDiscoverer* discoverer,
                              const std::string& path,
                              CheckpointSection* stream) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return LoadDiscoverer(discoverer, in, stream);
}

}  // namespace tcomp
