#include "stream/inactive_period.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "core/discoverer.h"
#include "util/logging.h"

namespace tcomp {

InactivePeriodFiller::InactivePeriodFiller(int max_inactive_snapshots)
    : max_inactive_(max_inactive_snapshots) {
  TCOMP_CHECK_GE(max_inactive_snapshots, 0);
}

void InactivePeriodFiller::Reset() {
  current_ = 0;
  seen_.clear();
}

Snapshot InactivePeriodFiller::Fill(const Snapshot& snapshot) {
  if (max_inactive_ == 0) {
    ++current_;
    return snapshot;
  }
  // One merge of the snapshot's ids with the last sightings (both
  // ascending): a reporting object updates its sighting, an absent one
  // within the threshold is dead-reckoned.
  std::vector<ObjectPosition> positions;
  positions.reserve(snapshot.size());
  merged_.clear();
  merged_.reserve(seen_.size() + snapshot.size());
  const auto keep_absent = [&](const LastSeen& absent) {
    merged_.push_back(absent);
    const int64_t gap = current_ - absent.snapshot;
    if (gap <= max_inactive_) {
      // Dead reckoning: advance the last position by the last observed
      // velocity so the object stays with its moving companions.
      positions.push_back(ObjectPosition{
          absent.id, absent.pos + absent.velocity * static_cast<double>(gap)});
    }
  };
  size_t k = 0;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const ObjectId oid = snapshot.id(i);
    for (; k < seen_.size() && seen_[k].id < oid; ++k) keep_absent(seen_[k]);
    positions.push_back(ObjectPosition{oid, snapshot.pos(i)});
    LastSeen seen{oid, snapshot.pos(i), Point{}, current_};
    if (k < seen_.size() && seen_[k].id == oid) {
      const LastSeen& last = seen_[k++];
      const int64_t gap = current_ - last.snapshot;
      seen.velocity = (snapshot.pos(i) - last.pos) / static_cast<double>(gap);
    }
    merged_.push_back(seen);
  }
  for (; k < seen_.size(); ++k) keep_absent(seen_[k]);
  seen_.swap(merged_);
  ++current_;
  return Snapshot(std::move(positions), snapshot.duration());
}

SnapshotStream InactivePeriodFiller::FillStream(
    const SnapshotStream& stream) {
  SnapshotStream out;
  out.reserve(stream.size());
  for (const Snapshot& s : stream) out.push_back(Fill(s));
  return out;
}

void InactivePeriodFiller::SaveState(std::ostream& out) const {
  out << "filler " << current_ << ' ' << seen_.size() << '\n';
  for (const LastSeen& s : seen_) {
    out << s.id << ' ' << s.snapshot;
    for (double v : {s.pos.x, s.pos.y, s.velocity.x, s.velocity.y}) {
      out << ' ';
      WriteHexDouble(out, v);
    }
    out << '\n';
  }
}

Status InactivePeriodFiller::LoadState(std::istream& in) {
  std::string tag;
  int64_t current = 0;
  uint64_t count = 0;
  if (!(in >> tag >> current >> count) || tag != "filler") {
    return Status::Corruption("expected 'filler' section");
  }
  if (current < 0 || count > kMaxCheckpointCount) {
    return Status::Corruption("implausible filler state");
  }
  std::vector<LastSeen> seen(count);
  for (uint64_t i = 0; i < count; ++i) {
    LastSeen& s = seen[i];
    std::string token[4];
    if (!(in >> s.id >> s.snapshot >> token[0] >> token[1] >> token[2] >>
          token[3])) {
      return Status::Corruption("bad filler record");
    }
    if (i > 0 && s.id <= seen[i - 1].id) {
      return Status::Corruption("filler ids out of order");
    }
    if (s.snapshot < 0 || s.snapshot >= current) {
      return Status::Corruption("filler sighting outside the stream");
    }
    double* field[4] = {&s.pos.x, &s.pos.y, &s.velocity.x, &s.velocity.y};
    for (int f = 0; f < 4; ++f) {
      if (!ParseHexDouble(token[f], field[f]) || !std::isfinite(*field[f])) {
        return Status::Corruption("bad filler coordinate");
      }
    }
  }
  current_ = current;
  seen_ = std::move(seen);
  return Status::OK();
}

}  // namespace tcomp
