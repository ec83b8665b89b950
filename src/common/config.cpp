#include "common/config.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <span>
#include <sstream>

namespace lsdf {

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split(std::string_view s, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      return parts;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

Result<std::int64_t> parse_int(std::string_view text) {
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return invalid_argument("'" + std::string(text) +
                            "' is not an integer");
  }
  return value;
}

Result<double> parse_real(std::string_view text) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    return invalid_argument("'" + std::string(text) +
                            "' is not a finite number");
  }
  return value;
}

namespace {

struct Unit {
  std::string_view name;
  double scale;
};

constexpr Unit kByteUnits[] = {{"", 1.0},   {"B", 1.0},   {"KB", 1e3},
                               {"MB", 1e6}, {"GB", 1e9},  {"TB", 1e12},
                               {"PB", 1e15}};
constexpr Unit kDurationUnits[] = {{"ns", 1.0},     {"us", 1e3},
                                   {"ms", 1e6},     {"s", 1e9},
                                   {"min", 60e9},   {"h", 3600e9},
                                   {"d", 86400e9},  {"days", 86400e9}};

// `<digits and dots> [spaces] <unit>` as a count of the units' base. The
// numeric part admits no sign, so the count is never negative; it must
// parse in full and, scaled, stay below 2^63.
Result<std::int64_t> parse_scaled(std::string_view text,
                                  std::span<const Unit> units,
                                  std::string_view what,
                                  std::string_view unit_list) {
  text = trim(text);
  const std::string subject =
      std::string(what) + " '" + std::string(text) + "'";
  const std::string_view number =
      text.substr(0, text.find_first_not_of("0123456789."));
  const Result<double> value = parse_real(number);
  if (!value.is_ok()) {
    return invalid_argument(subject + " needs a decimal number before its unit");
  }
  const std::string_view unit = trim(text.substr(number.size()));
  const Unit* found = nullptr;
  for (const Unit& candidate : units) {
    if (candidate.name == unit) found = &candidate;
  }
  if (found == nullptr) {
    return invalid_argument(subject + " needs a unit (" +
                            std::string(unit_list) + ")");
  }
  const double scaled = value.value() * found->scale;
  // 2^63 and up do not fit the int64 count.
  if (scaled >= 0x1p63) return invalid_argument(subject + " is out of range");
  return static_cast<std::int64_t>(scaled);
}

// A getter's parse error, prefixed with the key it read.
template <typename T>
Result<T> for_key(const std::string& key, Result<T> parsed) {
  if (parsed.is_ok()) return parsed;
  return invalid_argument("property `" + key +
                          "`: " + parsed.status().message());
}

}  // namespace

Result<Bytes> parse_bytes(std::string_view text) {
  LSDF_ASSIGN_OR_RETURN(
      const std::int64_t count,
      parse_scaled(text, kByteUnits, "byte count", "B/KB/MB/GB/TB/PB"));
  return Bytes(count);
}

Result<SimDuration> parse_duration(std::string_view text) {
  LSDF_ASSIGN_OR_RETURN(
      const std::int64_t nanos,
      parse_scaled(text, kDurationUnits, "duration", "ns/us/ms/s/min/h/d"));
  return SimDuration(nanos);
}

Result<Properties> Properties::parse(std::string_view text) {
  Properties props;
  std::map<std::string, int> first_line;
  int line_no = 0;
  for (const auto& raw_line : split(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return invalid_argument("line " + std::to_string(line_no) +
                              ": expected `key = value`");
    }
    const std::string key(trim(line.substr(0, eq)));
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return invalid_argument("line " + std::to_string(line_no) +
                              ": empty key");
    }
    const auto [seen, first] = first_line.emplace(key, line_no);
    if (!first) {
      return invalid_argument("line " + std::to_string(line_no) + ": key `" +
                              key + "` repeats line " +
                              std::to_string(seen->second));
    }
    props.set(key, std::string(value));
  }
  return props;
}

Result<Properties> Properties::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return not_found("cannot open config " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = parse(text.str());
  if (!parsed.is_ok()) {
    return invalid_argument(path + ": " + parsed.status().message());
  }
  return parsed;
}

Result<std::string> Properties::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return not_found("no property `" + key + "`");
  return it->second;
}

Result<std::int64_t> Properties::get_int(const std::string& key) const {
  LSDF_ASSIGN_OR_RETURN(const std::string text, get(key));
  return for_key(key, parse_int(text));
}

Result<double> Properties::get_double(const std::string& key) const {
  LSDF_ASSIGN_OR_RETURN(const std::string text, get(key));
  return for_key(key, parse_real(text));
}

Result<bool> Properties::get_bool(const std::string& key) const {
  const Result<std::string> found = get(key);
  if (!found.is_ok()) return found.status();
  const std::string& text = found.value();
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  return invalid_argument("property `" + key + "` is not a boolean: `" +
                          text + "`");
}

Result<std::int64_t> Properties::get_int_or(const std::string& key,
                                            std::int64_t fallback) const {
  if (!contains(key)) return fallback;
  return get_int(key);
}

}  // namespace lsdf
