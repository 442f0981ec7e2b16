#include "util/text_fields.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace tcomp {
namespace {

constexpr std::string_view kBlanks = " \t\r\n";

}  // namespace

std::string_view TrimBlanks(std::string_view text) {
  size_t begin = text.find_first_not_of(kBlanks);
  if (begin == std::string_view::npos) return {};
  size_t end = text.find_last_not_of(kBlanks);
  return text.substr(begin, end - begin + 1);
}

bool ParseIdField(std::string_view field, uint32_t* out) {
  field = TrimBlanks(field);
  const char* end = field.data() + field.size();
  uint32_t v = 0;
  // For an unsigned type from_chars takes digits only: no sign at all.
  std::from_chars_result r = std::from_chars(field.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = v;
  return true;
}

bool ParseFiniteField(std::string_view field, double* out) {
  field = TrimBlanks(field);
  const char* end = field.data() + field.size();
  double v = 0.0;
  std::from_chars_result r =
      std::from_chars(field.data(), end, v, std::chars_format::general);
  if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::vector<std::string_view> SplitBlanks(std::string_view line) {
  std::vector<std::string_view> tokens;
  for (;;) {
    size_t begin = line.find_first_not_of(kBlanks);
    if (begin == std::string_view::npos) return tokens;
    line.remove_prefix(begin);
    size_t end = line.find_first_of(kBlanks);
    tokens.push_back(line.substr(0, end));
    if (end == std::string_view::npos) return tokens;
    line.remove_prefix(end);
  }
}

}  // namespace tcomp
