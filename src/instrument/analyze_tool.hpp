// The `predator-cli analyze` subcommand as a library: argument parsing and
// report generation live here (not in tools/) so tests can drive the exact
// code path the CLI ships — including flag rejection and the --json /
// --predict output — without spawning a process.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/flags.hpp"

namespace pred::ir {

struct AnalyzeOptions {
  std::string path;       ///< textual IR module to analyze
  bool json = false;      ///< machine-readable output (single JSON document)
  bool predict = false;   ///< run the static false-sharing predictor
  std::size_t line_size = 64;  ///< base geometry for --predict
};

/// The analyze flags (for `predator-cli analyze --help`).
std::span<const Flag<AnalyzeOptions>> analyze_flags();

/// Parses everything AFTER the `analyze` subcommand word with the shared
/// flag parser (common/flags.hpp). Unknown flags, a missing path, a
/// duplicate path, or a malformed --line-size fail with a one-line
/// diagnostic in *err. Accepted:
///   <module.pir> [--json] [--predict] [--line-size N]
bool parse_analyze_args(const std::vector<std::string>& args,
                        AnalyzeOptions* opt, std::string* err);

/// Runs the analysis and appends the report to *out (human text, or one
/// JSON document with --json); diagnostics go to *err. Returns the process
/// exit code (0 on success).
int run_analyze(const AnalyzeOptions& opt, std::string* out, std::string* err);

}  // namespace pred::ir
