// The command-line parser shared by predator-cli and the analyze tool.
//
// A command's flags are one table of Flag rows. The parser, the check that
// a flag belongs to the command it was given to, and the --help text all
// read that table, so a flag cannot be accepted by a command that ignores
// it, nor documented differently from how it parses.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace pred {

/// One flag. `scopes` holds a bit per command that accepts it; a table
/// serving a single command uses any non-zero mask. `set` stores the value
/// (an empty string for a switch) and returns false if it is malformed.
template <typename Opts>
struct Flag {
  const char* name;   ///< "--threads"
  const char* value;  ///< placeholder shown in help ("N"); null for a switch
  unsigned scopes;
  const char* help;
  bool (*set)(Opts& opts, const char* value);
};

/// Parses `args` for the command whose scope bit is `scope`. A word that
/// does not start with '-' is the command's operand: it goes to *operand
/// if the command takes one (operand non-null) and has none yet, and is
/// an error otherwise. On failure *err is a one-line diagnostic naming the
/// offending word.
template <typename Opts>
bool parse_flags(const std::vector<std::string>& args,
                 std::span<const Flag<std::type_identity_t<Opts>>> flags,
                 unsigned scope, Opts& opts, std::string* operand,
                 std::string* err) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (operand == nullptr || !operand->empty()) {
        *err = "unexpected argument '" + arg + "'";
        return false;
      }
      *operand = arg;
      continue;
    }
    const Flag<Opts>* flag = nullptr;
    for (const Flag<Opts>& f : flags) {
      if (arg == f.name) flag = &f;
    }
    if (flag == nullptr) {
      *err = "unknown flag '" + arg + "'";
      return false;
    }
    if ((flag->scopes & scope) == 0) {
      *err = "flag '" + arg + "' does not apply to this command";
      return false;
    }
    const char* value = "";
    if (flag->value != nullptr) {
      if (i + 1 >= args.size()) {
        *err = "flag '" + arg + "' needs a value (" + flag->value + ")";
        return false;
      }
      value = args[++i].c_str();
    }
    if (!flag->set(opts, value)) {
      *err = "bad value for '" + arg + "': '" + value + "'";
      return false;
    }
  }
  return true;
}

/// One help line per flag `scope` accepts: "  --name VALUE   help".
template <typename Opts>
std::string flag_help(std::span<const Flag<Opts>> flags, unsigned scope) {
  std::string out;
  for (const Flag<Opts>& f : flags) {
    if ((f.scopes & scope) == 0) continue;
    std::string head = std::string("  ") + f.name;
    if (f.value != nullptr) head += std::string(" ") + f.value;
    head.resize(head.size() < 26 ? 26 : head.size() + 1, ' ');
    out += head + f.help + "\n";
  }
  return out;
}

/// Parses a decimal integer in [lo, hi] into *out (T must hold hi).
template <typename T>
bool parse_uint(const char* s, T* out, std::uint64_t lo = 0,
                std::uint64_t hi = UINT64_MAX) {
  if (*s < '0' || *s > '9') return false;  // strtoull would take "-1"
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  *out = static_cast<T>(v);
  return true;
}

}  // namespace pred
