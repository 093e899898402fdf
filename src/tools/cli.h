// tiresias_cli — command-line front end for trace generation, conversion,
// detection, seasonality analysis and serving over the built-in dataset
// presets.
//
// Subcommands:
//   generate   synthesize a CSV trace (optionally with injected spikes)
//   convert    re-encode a CSV trace in the binary .tsrb record format
//   detect     run the pipeline over a trace, export anomalies
//   analyze    FFT/wavelet seasonality report for a trace's root counts
//   hierarchy  print a dataset's hierarchy summary
//   serve      multiplex generated or TCP-fed streams through the
//              concurrent multi-stream DetectionEngine (src/engine/)
//   send       stream a trace file into a listening `serve --listen`
//
// Every option is declared once, as a row of the table cliOptions()
// returns; that table drives parsing, validation and the usage text. The
// implementation lives behind runCli so tests can drive it in-process.
#pragma once

#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace tiresias::tools {

/// Parsed "--key value" / positional arguments.
struct CliArgs {
  std::string command;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  /// Value of --name (the last one if repeated), or `fallback`. runCli
  /// itself reads options through the option table instead.
  std::string get(const std::string& name, const std::string& fallback) const;
  bool has(const std::string& name) const;
};

/// Parse argv (past the program name). Options are "--name value"; a
/// leading bare word is the subcommand.
CliArgs parseArgs(const std::vector<std::string>& argv);

/// One row of the option table.
struct CliOption {
  enum class Kind { kInt, kReal, kString, kEnum, kFlag, kRepeated };
  /// kListenOnly / kGeneratedOnly restrict a `serve` option to runs with /
  /// without --listen; kBinaryOnly restricts a `send` option to
  /// --format binary.
  enum class Mode { kAny, kListenOnly, kGeneratedOnly, kBinaryOnly };
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  const char* name;      // without the leading "--"
  const char* commands;  // space-separated commands that accept it
  Kind kind;
  /// Value placeholder in the usage text; the '|'-separated choices of a
  /// kEnum.
  const char* value = "";
  const char* def = "";  // default, as command-line text ("" = none)
  /// Inclusive bounds on a kInt/kReal value or on a kString's byte length.
  /// Reals must also be finite.
  double lo = -kUnbounded;
  double hi = kUnbounded;
  const char* needs = nullptr;  // another option that must also be given
  Mode mode = Mode::kAny;
  const char* help = "";
};

/// The option table, read-only (exposed for tests that sweep it).
std::span<const CliOption> cliOptions();

/// Run a CLI invocation; output goes to `out`, errors to `err`.
/// Returns the process exit code.
int runCli(const std::vector<std::string>& argv, std::ostream& out,
           std::ostream& err);

}  // namespace tiresias::tools
