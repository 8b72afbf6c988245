#ifndef FRESHSEL_CLI_TOOLS_LINT_LIB_H_
#define FRESHSEL_CLI_TOOLS_LINT_LIB_H_

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

/// Core of the `freshsel_lint` tool: a repo-specific rule engine enforced
/// as a ctest and a CI SARIF upload (see DESIGN.md §12). Split from the
/// CLI main so the rules are unit-testable on fixture files.
///
/// Every check is a registered rule with a stable kebab-case id
/// (`RuleCatalog`). Findings can be suppressed inline, one site at a time,
/// with a reason:
///
///   ignorable_call();  // FRESHSEL_LINT_ALLOW(<rule-id>): why it is fine
///
/// The marker suppresses the named rule on its own line and on the line
/// directly below (so it can sit above a long statement). A marker without
/// a `: reason` tail, naming an unknown rule, or matching no finding is
/// itself reported (rule `lint-allow`), keeping the suppression inventory
/// honest.
namespace freshsel::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;     ///< Rule id, e.g. "no-rand", "raw-mutex".
  std::string message;
};

/// One engine rule. `fixable` marks rules `freshsel_lint --fix` can repair
/// mechanically (see ApplyFixes).
struct RuleInfo {
  std::string id;
  std::string summary;
  bool fixable = false;
};

/// Every registered rule, deterministically ordered by id. The catalog is
/// what `--list-rules` prints and what the SARIF `rules` array carries.
const std::vector<RuleInfo>& RuleCatalog();

/// True when `id` names a registered rule (including the engine's own
/// "io" and "lint-allow" reporting pseudo-rules).
bool IsKnownRule(const std::string& id);

struct LintOptions {
  /// Enforce the no-bare-assert rule (off for test trees, where gtest
  /// helpers legitimately assert).
  bool assert_rule = true;
  /// Ban std::chrono::steady_clock outside the obs/ subtree: timing must
  /// go through the obs layer (obs/clock.h, obs/timer.h, or the
  /// FRESHSEL_OBS_* macros) so it is histogram-recordable and compiles out
  /// with FRESHSEL_OBS=OFF.
  bool obs_clock_rule = true;
  /// Include guards must read PREFIX + RELATIVE_PATH, uppercased.
  std::string guard_prefix = "FRESHSEL_";
  /// Rule ids to skip entirely (e.g. {"nondeterminism"}).
  std::set<std::string> disabled_rules;
};

/// Replaces comments and string/char literal contents with spaces so pattern
/// rules never fire on prose or quoted text; newlines are preserved.
std::string StripCommentsAndStrings(const std::string& src);

/// "common/bit_vector.h" -> "FRESHSEL_COMMON_BIT_VECTOR_H_".
std::string ExpectedGuard(const std::filesystem::path& relative,
                          const std::string& prefix);

/// One parsed FRESHSEL_LINT_ALLOW marker.
struct Suppression {
  std::size_t line = 0;      ///< Line the marker sits on.
  std::string rule;          ///< Rule id inside the parentheses.
  bool has_reason = false;   ///< Marker carries a ": reason" tail.
  bool used = false;         ///< Set by the engine when it eats a finding.
};

/// Extracts FRESHSEL_LINT_ALLOW(<rule-id>)[: reason] markers from raw file
/// text. String literals are ignored (markers live in comments), and a
/// parenthesized id that is not lowercase kebab/underscore - like the
/// literal placeholder above - is documentation, not a marker.
std::vector<Suppression> ParseSuppressions(const std::string& raw);

/// Lints one file; `relative` (to the scan root) names the expected include
/// guard and the path-scoped rule subtree (first component). Appends
/// unsuppressed findings.
void LintFile(const std::filesystem::path& file,
              const std::filesystem::path& relative, const LintOptions& options,
              std::vector<Finding>* findings);

/// Scans files/directories (recursively; .h/.cc/.cpp) and runs every rule
/// on each file. Returns all findings, deterministically ordered.
/// Unreadable paths produce an "io" finding.
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options,
                               std::size_t* files_scanned);

/// Renders findings as the classic "file:line: [rule] message" text block.
std::string FindingsToText(const std::vector<Finding>& findings,
                           std::size_t files_scanned);

/// Renders findings as a machine-readable JSON object
/// ({"files_scanned": N, "findings": [...]}).
std::string FindingsToJson(const std::vector<Finding>& findings,
                           std::size_t files_scanned);

/// Renders findings as a SARIF 2.1.0 log (one run, driver "freshsel_lint",
/// the full RuleCatalog in tool.driver.rules, one result per finding) for
/// CI code-scanning upload.
std::string FindingsToSarif(const std::vector<Finding>& findings);

/// One mechanical repair `--fix` would perform.
struct FixEdit {
  std::string file;
  std::size_t line = 0;     ///< 1-based line the edit touches (inserts: the
                            ///< line the new text lands on).
  std::string rule;
  std::string before;       ///< Empty for pure insertions.
  std::string after;
};

/// Computes mechanical fixes for the fixable rules among `findings`
/// (iwyu-spot include insertion, failpoint-name rewrites). When `apply` is
/// true the files are rewritten in place; otherwise this is the dry run.
/// Returns the edits (for diff printing), deterministically ordered.
std::vector<FixEdit> ApplyFixes(const std::vector<Finding>& findings,
                                bool apply);

/// Unified-diff-style rendering of `edits` for `--fix-dry-run` output.
std::string EditsToDiff(const std::vector<FixEdit>& edits);

}  // namespace freshsel::lint

#endif  // FRESHSEL_CLI_TOOLS_LINT_LIB_H_
