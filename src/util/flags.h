#ifndef TCOMP_UTIL_FLAGS_H_
#define TCOMP_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace tcomp {

/// Strict full-string numeric parsing. The entire token (modulo leading
/// and trailing ASCII whitespace) must parse and fit the result type;
/// trailing garbage ("12abc"), overflow, and empty input are errors, not
/// best-effort prefixes — atoi-style silent truncation has burned this
/// codebase's determinism claims before, so nothing here uses it.
/// ParseDoubleText takes the record-field grammar of util/text_fields.h:
/// a finite double, so "inf", "nan", "+5" and hex are refused.
StatusOr<int64_t> ParseInt64Text(const std::string& text);
StatusOr<double> ParseDoubleText(const std::string& text);
StatusOr<bool> ParseBoolText(const std::string& text);

/// Minimal command-line flag parser for the bench and example binaries.
/// Accepts `--name=value`, `--name value`, and bare `--name` (boolean true).
/// Anything not starting with `--` is collected as a positional argument.
///
/// Example:
///   FlagParser flags;
///   Status s = flags.Parse(argc, argv);
///   int n = flags.GetInt("objects", 1000);
///   bool full = flags.GetBool("full", false);
///
/// The two-argument getters are lenient: a missing *or malformed* value
/// yields the default. User-facing surfaces (the CLI) must use the strict
/// Status-returning getters instead, so `--mu abc` fails loudly rather
/// than running with a default.
class FlagParser {
 public:
  /// Parses argv. Returns InvalidArgument on malformed input (e.g. `--=x`).
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int GetInt(const std::string& name, int default_value) const;
  int64_t GetInt64(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Strict getters: `*out` receives the default when the flag is absent;
  /// a present-but-malformed value is an InvalidArgument error naming the
  /// flag. GetStrict(name, int) additionally rejects values outside int
  /// range.
  Status GetStrict(const std::string& name, int default_value,
                   int* out) const;
  Status GetStrict(const std::string& name, int64_t default_value,
                   int64_t* out) const;
  Status GetStrict(const std::string& name, double default_value,
                   double* out) const;
  Status GetStrict(const std::string& name, bool default_value,
                   bool* out) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every flag name that was passed, sorted ascending — lets a caller
  /// reject flags it does not understand instead of silently ignoring a
  /// typo (`--epsilom 24` would otherwise run with the default ε).
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tcomp

#endif  // TCOMP_UTIL_FLAGS_H_
