#ifndef TCOMP_CORE_CHECKPOINT_H_
#define TCOMP_CORE_CHECKPOINT_H_

#include <iosfwd>
#include <string>

#include "core/discoverer.h"
#include "util/status.h"

namespace tcomp {

/// Checkpoint/restore for long-running stream monitors: a discoverer's
/// complete state (candidate sets, buddy structures, companion log, cost
/// counters) round-trips through a versioned text record, so after a
/// process restart the monitor resumes exactly where it left off —
/// continuing the stream after LoadDiscovererFromFile() yields the same
/// companions and counters as an uninterrupted run (asserted by
/// tests/checkpoint_test.cc).
///
/// Usage:
///   SaveDiscovererToFile(*discoverer, "state.ckpt");
///   ...restart...
///   auto discoverer = MakeDiscoverer(algorithm, same_params);
///   LoadDiscovererFromFile(discoverer.get(), "state.ckpt");
///
/// The restoring discoverer must be constructed with the same algorithm
/// and parameters as the saved one (the algorithm is verified from the
/// header; parameters are the caller's responsibility, as they are not
/// part of the mutable state).
///
/// Stream state outside the discoverer that a resumed run must restore
/// too — the inactive-period filler (stream/inactive_period.h) — rides in
/// the same record as a `stream` section after the discoverer's. Pass it
/// as `stream` to both calls. A record saved without one loads into any
/// caller (the caller's section is left untouched); a record saved with
/// one needs a caller that passes one, else InvalidArgument.
class CheckpointSection {
 public:
  virtual ~CheckpointSection() = default;
  virtual void SaveState(std::ostream& out) const = 0;
  virtual Status LoadState(std::istream& in) = 0;
};

/// Section helpers: a double as a hex float, so the round trip is
/// bit-exact whatever the stream's precision settings. Parsing accepts
/// exactly one whole token.
void WriteHexDouble(std::ostream& out, double v);
bool ParseHexDouble(const std::string& token, double* out);

Status SaveDiscoverer(const CompanionDiscoverer& discoverer,
                      std::ostream& out,
                      const CheckpointSection* stream = nullptr);
Status LoadDiscoverer(CompanionDiscoverer* discoverer, std::istream& in,
                      CheckpointSection* stream = nullptr);

Status SaveDiscovererToFile(const CompanionDiscoverer& discoverer,
                            const std::string& path,
                            const CheckpointSection* stream = nullptr);
Status LoadDiscovererFromFile(CompanionDiscoverer* discoverer,
                              const std::string& path,
                              CheckpointSection* stream = nullptr);

}  // namespace tcomp

#endif  // TCOMP_CORE_CHECKPOINT_H_
