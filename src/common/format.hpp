// printf-style formatting into std::string, for the text reports.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace pred {

/// Appends printf-formatted text to `out`. The output is sized first, so a
/// long field (a global's name, a source label) is never cut.
__attribute__((format(printf, 2, 3))) inline void append_fmt(
    std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n));
    // Writes n chars plus the terminator at out[old + n], which std::string
    // already owns.
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   again);
  }
  va_end(again);
}

}  // namespace pred
