#ifndef TCOMP_UTIL_TEXT_FIELDS_H_
#define TCOMP_UTIL_TEXT_FIELDS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace tcomp {

/// The one numeric field grammar of every text input: record files (CSV,
/// T-Drive, GeoLife), text INGEST, truth files and command-line flags.
/// A field may carry blanks (space, tab, CR, LF) around its value; the
/// value itself must be consumed whole. Both parsers are built on
/// std::from_chars, so they are locale-free and round exactly like strtod.

/// Drops the blanks around `text`.
std::string_view TrimBlanks(std::string_view text);

/// An object id: a decimal uint32 — digits only, at most 4294967295, with
/// no sign, fraction or exponent. "1.5", "-1", "+7", "7x", "4294967296",
/// "1e12" and "nan" are all refused. `*out` is untouched on failure.
bool ParseIdField(std::string_view field, uint32_t* out);

/// A finite double in std::from_chars' general format: an optional '-',
/// digits with an optional fraction, an optional exponent. A leading '+',
/// hex, "inf", "nan" and values outside the double range (overflow and
/// total underflow alike) are refused. `*out` is untouched on failure.
bool ParseFiniteField(std::string_view field, double* out);

/// Splits `line` at runs of blanks into its non-empty tokens.
std::vector<std::string_view> SplitBlanks(std::string_view line);

}  // namespace tcomp

#endif  // TCOMP_UTIL_TEXT_FIELDS_H_
