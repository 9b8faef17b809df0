#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace aeris::core {

/// The environment variable `name` parsed as a T, or `fallback` when the
/// variable is unset or empty. The one parser behind every numeric AERIS_*
/// knob: ServerOptions::from_env, ClusterOptions::from_env and the comm
/// deadline (AERIS_COMM_TIMEOUT_MS). A value that does not parse in full
/// ("10abc", "abc") or does not fit in T throws std::invalid_argument
/// naming the variable and the value, so a typo never silently becomes a
/// default.
template <typename T>
T env_number(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  T parsed{};
  bool in_range = true;
  if constexpr (std::is_floating_point_v<T>) {
    parsed = static_cast<T>(std::strtod(v, &end));
  } else {
    const long long x = std::strtoll(v, &end, 10);
    in_range = x >= std::numeric_limits<T>::min() &&
               x <= std::numeric_limits<T>::max();
    parsed = static_cast<T>(x);
  }
  if (end == v || *end != '\0' || errno == ERANGE || !in_range) {
    throw std::invalid_argument(std::string(name) + ": cannot parse \"" + v +
                                "\"");
  }
  return parsed;
}

}  // namespace aeris::core
