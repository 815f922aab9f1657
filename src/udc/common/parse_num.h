// Checked numeric parsing for the text round-trip layers (fault scripts,
// witness files): the std::sto* family throws std::invalid_argument /
// std::out_of_range, but udckit's contract is that malformed persisted input
// surfaces as InvariantViolation with a message naming the offending text.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "udc/common/check.h"

namespace udc {

namespace detail {
// The message is the whole what(): a command-line tool prints it as is.
template <typename T, typename F>
T checked_parse(const std::string& text, const char* what, F&& convert) {
  std::size_t used = 0;
  T value{};
  try {
    value = convert(text, &used);
  } catch (const std::exception&) {
    throw InvariantViolation(std::string("malformed ") + what + ": '" + text +
                             "'");
  }
  if (used != text.size()) {
    throw InvariantViolation(std::string("trailing junk in ") + what + ": '" +
                             text + "'");
  }
  return value;
}
}  // namespace detail

inline int parse_int(const std::string& text, const char* what) {
  return detail::checked_parse<int>(
      text, what,
      [](const std::string& s, std::size_t* used) { return std::stoi(s, used); });
}

inline long long parse_i64(const std::string& text, const char* what) {
  return detail::checked_parse<long long>(
      text, what, [](const std::string& s, std::size_t* used) {
        return std::stoll(s, used);
      });
}

inline std::uint64_t parse_u64(const std::string& text, const char* what) {
  return detail::checked_parse<std::uint64_t>(
      text, what, [](const std::string& s, std::size_t* used) {
        // stoull negates "-1" into 2^64 - 1 instead of refusing it.
        if (s.find('-') != std::string::npos) throw std::invalid_argument(s);
        return std::stoull(s, used);
      });
}

inline double parse_f64(const std::string& text, const char* what) {
  return detail::checked_parse<double>(
      text, what, [](const std::string& s, std::size_t* used) {
        return std::stod(s, used);
      });
}

}  // namespace udc
