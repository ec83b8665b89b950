//! Configuration input: `key = value` properties and the one grammar by
//! which their text becomes a checked number.
//!
//! Every loader of outside configuration (the facility deployment in
//! core, fed's sites, rules and quotas, the fault plans, the bench
//! scenario and floor files) reads values through the parsers below, so
//! one set of rules decides what a number is: the whole text must be the
//! number, a real must be finite, and a quantity with a unit ("500GB",
//! "90min") must be non-negative and fit the int64 count it becomes.
//! Anything else is INVALID_ARGUMENT, never a partly read or default value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace lsdf {

// A decimal integer, the whole text ("42", "-7"; not "42x", "+1", " 1").
[[nodiscard]] Result<std::int64_t> parse_int(std::string_view text);
// A finite real, the whole text ("0.65", "10", "-1"; not "nan", "inf",
// "1.2.3", "2+3").
[[nodiscard]] Result<double> parse_real(std::string_view text);
// "500GB" / "2 TB" / "1048576": a decimal number and a decimal byte unit
// (B, KB, MB, GB, TB, PB; none means bytes) — the paper's convention.
[[nodiscard]] Result<Bytes> parse_bytes(std::string_view text);
// "250ms" / "90s" / "5min" / "2h" / "1d": a decimal number and a unit
// (ns, us, ms, s, min, h, d or days).
[[nodiscard]] Result<SimDuration> parse_duration(std::string_view text);

class Properties {
 public:
  Properties() = default;

  // Parses `key = value` lines; '#' starts a comment; blank lines ignored.
  // A key given twice is an error naming both lines.
  [[nodiscard]] static Result<Properties> parse(std::string_view text);
  // Reads the file at `path` and parses it; errors name the path.
  [[nodiscard]] static Result<Properties> load(const std::string& path);

  void set(std::string key, std::string value) {
    entries_[std::move(key)] = std::move(value);
  }

  [[nodiscard]] bool contains(const std::string& key) const {
    return entries_.contains(key);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] Result<std::string> get(const std::string& key) const;
  [[nodiscard]] Result<std::int64_t> get_int(const std::string& key) const;
  [[nodiscard]] Result<double> get_double(const std::string& key) const;
  [[nodiscard]] Result<bool> get_bool(const std::string& key) const;
  // `fallback` when the key is absent; a present value must parse.
  [[nodiscard]] Result<std::int64_t> get_int_or(const std::string& key,
                                                std::int64_t fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

// String helpers shared across modules.
[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::vector<std::string> split(std::string_view s,
                                             char delimiter);

}  // namespace lsdf
