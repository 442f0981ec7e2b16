#include "util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/text_fields.h"

namespace tcomp {

StatusOr<int64_t> ParseInt64Text(const std::string& text) {
  // A trailing "\r" from a Windows-edited script must not make a value
  // malformed.
  std::string t(TrimBlanks(text));
  if (t.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size()) {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + text + "'");
  }
  return static_cast<int64_t>(v);
}

StatusOr<double> ParseDoubleText(const std::string& text) {
  if (TrimBlanks(text).empty()) return Status::InvalidArgument("empty number");
  double v = 0.0;
  if (!ParseFiniteField(text, &v)) {
    return Status::InvalidArgument("not a finite number: '" + text + "'");
  }
  return v;
}

StatusOr<bool> ParseBoolText(const std::string& text) {
  std::string_view t = TrimBlanks(text);
  if (t == "true" || t == "1" || t == "yes" || t == "on") return true;
  if (t == "false" || t == "0" || t == "no" || t == "off") return false;
  return Status::InvalidArgument("not a boolean: '" + text + "'");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("flag with empty name: " + arg);
      }
      values_[name] = body.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token if it is not a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
  return Status::OK();
}

std::vector<std::string> FlagParser::names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int FlagParser::GetInt(const std::string& name, int default_value) const {
  int out = default_value;
  (void)GetStrict(name, default_value, &out);  // lenient: default on error
  return out;
}

int64_t FlagParser::GetInt64(const std::string& name,
                             int64_t default_value) const {
  int64_t out = default_value;
  (void)GetStrict(name, default_value, &out);  // lenient: default on error
  return out;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  double out = default_value;
  (void)GetStrict(name, default_value, &out);  // lenient: default on error
  return out;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  bool out = default_value;
  (void)GetStrict(name, default_value, &out);  // lenient: default on error
  return out;
}

Status FlagParser::GetStrict(const std::string& name, int default_value,
                             int* out) const {
  *out = default_value;
  int64_t wide = default_value;
  TCOMP_RETURN_IF_ERROR(GetStrict(name, static_cast<int64_t>(default_value),
                                  &wide));
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return Status::OutOfRange("--" + name + ": value out of int range: " +
                              std::to_string(wide));
  }
  *out = static_cast<int>(wide);
  return Status::OK();
}

Status FlagParser::GetStrict(const std::string& name, int64_t default_value,
                             int64_t* out) const {
  *out = default_value;
  auto it = values_.find(name);
  if (it == values_.end()) return Status::OK();
  StatusOr<int64_t> parsed = ParseInt64Text(it->second);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  "--" + name + ": " + parsed.status().message());
  }
  *out = parsed.value();
  return Status::OK();
}

Status FlagParser::GetStrict(const std::string& name, double default_value,
                             double* out) const {
  *out = default_value;
  auto it = values_.find(name);
  if (it == values_.end()) return Status::OK();
  StatusOr<double> parsed = ParseDoubleText(it->second);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  "--" + name + ": " + parsed.status().message());
  }
  *out = parsed.value();
  return Status::OK();
}

Status FlagParser::GetStrict(const std::string& name, bool default_value,
                             bool* out) const {
  *out = default_value;
  auto it = values_.find(name);
  if (it == values_.end()) return Status::OK();
  StatusOr<bool> parsed = ParseBoolText(it->second);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  "--" + name + ": " + parsed.status().message());
  }
  *out = parsed.value();
  return Status::OK();
}

}  // namespace tcomp
