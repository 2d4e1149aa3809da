#ifndef AGGRECOL_CLI_COMMANDS_H_
#define AGGRECOL_CLI_COMMANDS_H_

#include <ostream>
#include <string>
#include <vector>

#include "cli/arg_parser.h"
#include "core/aggrecol.h"

namespace aggrecol::cli {

/// Entry point of the `aggrecol` command-line tool: dispatches on the first
/// positional (detect | evaluate | sniff | generate | batch | help) and
/// returns the process exit code. Output goes to `out`,
/// diagnostics to `err`.
int RunCli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

/// The CLI surface, exposed so tests can check docs/CLI.md against the real
/// command table instead of a hand-maintained copy (tests/docs_test.cc).
const std::vector<std::string>& CommandNames();

/// Option names (without the leading `--`) the given command accepts; empty
/// for commands that take no options (sniff, help).
std::vector<std::string> KnownOptionsFor(const std::string& command);

/// The `aggrecol help` text.
const char* UsageText();

/// Builds an AggreColConfig from the shared detection options:
///   --error-level=<e> or --error-level=sum:0.01,division:0.03
///   --coverage=<cov> --window=<w> --functions=sum,average,...
///   --stages=i|ic|ics --axis=rows|columns|both --no-empty-as-zero
/// Returns false and writes a message to `err` on invalid values.
bool ConfigFromArgs(const ArgParser& args, core::AggreColConfig* config,
                    std::ostream& err);

/// Individual subcommands, exposed for tests.
int RunDetect(const ArgParser& args, std::ostream& out, std::ostream& err);
int RunEvaluate(const ArgParser& args, std::ostream& out, std::ostream& err);
int RunSniff(const ArgParser& args, std::ostream& out, std::ostream& err);
int RunGenerate(const ArgParser& args, std::ostream& out, std::ostream& err);
int RunBatch(const ArgParser& args, std::ostream& out, std::ostream& err);

}  // namespace aggrecol::cli

#endif  // AGGRECOL_CLI_COMMANDS_H_
