// fastt-lint: a project-specific static analyzer that proves the repo's
// determinism, signal-safety, and allocation-tagging contracts at the
// source level, before any test has to catch them at runtime.
//
// The repro's load-bearing guarantees are behavioural: byte-identical
// search results at any --jobs count, an async-signal-safe SIGPROF
// handler, complete tagged-heap accounting. Each is one careless edit away
// from a bug that only a lucky runtime test would catch (the verifier
// already caught a real tie-breaking bug in dpos.cc this way). This tool
// encodes each invariant as a lexical/structural check with a stable rule
// id, so the whole class of bug dies in CI instead of in a flaky repro.
//
// Primary analysis path: a self-contained C++ tokenizer plus small
// semantic passes (declaration tracking, enclosing-function attribution,
// an interprocedural name-level call graph), driven by the repo's
// compile_commands.json. The build image has no libclang dev headers and
// no clang++ binary, so an AST-based implementation would be dead code
// here; the token-level core runs everywhere the repo builds, and the
// fixture suite in tests/lint_test.cc pins each rule's exact behaviour.
//
// Rule catalog (stable ids; see RuleCatalog() and DESIGN.md §17):
//   fastt-D1  no result-affecting iteration over unordered containers in
//             result paths (hash order is not part of the contract)
//   fastt-D2  no wall-clock / libc-random calls in result paths outside
//             the allowlisted telemetry timer sites
//   fastt-D3  no pointer-keyed ordered containers in result paths
//             (address order varies run to run)
//   fastt-D4  no shared-variable accumulation inside ParallelFor lambdas
//             (per-slot writes + serial reduction is the contract)
//   fastt-S1  nothing reachable from a registered signal handler may
//             allocate, lock, or touch stdio
//   fastt-A1  heap containers in memtrack-covered subsystems must be
//             tagged (TaggedAlloc / Tagged* aliases)
//
// Suppression: `// NOLINT(fastt-D1)` on the offending line,
// `// NOLINTNEXTLINE(fastt-D1)` on the line above, or a committed
// baseline file for grandfathered findings (stale entries warn).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastt {
namespace lint {

enum class Severity { kError, kWarning, kNote };

const char* SeverityName(Severity s);  // "error" / "warning" / "note"

// One catalog entry; the catalog is the single source of truth for rule
// metadata (text report, fastt-lint/1 JSON, SARIF rules array, docs).
struct RuleInfo {
  std::string id;         // stable, e.g. "fastt-D1"
  Severity severity = Severity::kError;
  std::string summary;    // one line, imperative
  std::string rationale;  // which runtime guarantee this protects
};

const std::vector<RuleInfo>& RuleCatalog();

struct Finding {
  std::string rule_id;
  Severity severity = Severity::kError;
  std::string file;      // repo-relative path
  int line = 0;
  std::string message;
  std::string fix_hint;
  std::string snippet;       // offending source line, whitespace-collapsed
  uint64_t fingerprint = 0;  // stable across unrelated edits (no line no.)
  bool baselined = false;    // matched a committed baseline entry
};

// Analyzer configuration. Path entries are repo-relative prefixes
// ("src/core/"); an empty list disables the corresponding scope.
struct LintConfig {
  // Directories whose code feeds search/sim results (D1–D4 scope).
  std::vector<std::string> result_paths = {"src/core/", "src/sim/",
                                           "src/baselines/", "src/cost/"};
  // Files whose heap containers must be tagged (A1 scope) — the
  // memtrack-covered subsystems from DESIGN.md §13.
  std::vector<std::string> tagged_paths = {
      "src/graph/graph.", "src/sim/exec_sim.cc", "src/cost/cost_table.",
      "src/core/dpos.cc", "src/core/os_dpos.cc"};
  // Signal-handler roots for the S1 reachability walk.
  std::vector<std::string> handler_roots = {"FasttProfSignalHandler"};
  // Allowlist: (rule, file substring, enclosing function) triples. A '*'
  // function matches any; the function matches any frame of the enclosing
  // function stack (so a lambda inside PortfolioSearch is covered by
  // "PortfolioSearch").
  struct Allow {
    std::string rule;
    std::string file_substr;
    std::string function;
  };
  std::vector<Allow> allows;
};

// Parses the committed fastt-lint.conf format: '#' comments, and lines
//   allow <rule-id> <file-substring> <function-name|*>
//   handler <function-name>
//   result-path <repo-relative-prefix>     (first use resets the default)
//   tagged-path <repo-relative-prefix>     (first use resets the default)
// Returns false with a reason on a malformed line.
bool LoadLintConfig(const std::string& text, LintConfig* cfg,
                    std::string* error);

struct SourceFile {
  std::string path;     // repo-relative
  std::string content;  // full text
};

// Runs every check over `files`. Per-file rules (D1–D4, A1) see one file
// at a time; S1 builds its call graph across the whole set, so handler
// helpers defined in other translation units resolve. Findings are sorted
// by (file, line, rule).
std::vector<Finding> LintSources(const std::vector<SourceFile>& files,
                                 const LintConfig& cfg);

// ---- Baseline ------------------------------------------------------------

struct BaselineEntry {
  std::string rule;
  std::string file;
  uint64_t fingerprint = 0;
};

// fastt-lint-baseline/1 JSON <-> entries.
bool LoadBaseline(const std::string& json_text,
                  std::vector<BaselineEntry>* out, std::string* error);
std::string BaselineToJson(const std::vector<Finding>& findings);

struct BaselineResult {
  size_t matched = 0;                  // findings flipped to baselined
  std::vector<BaselineEntry> stale;    // entries that matched nothing
};

// Marks findings matched by `entries` as baselined; returns the match
// count and the stale remainder (a stale entry means the grandfathered
// finding was fixed — the baseline should be regenerated, so it warns).
BaselineResult ApplyBaseline(std::vector<Finding>* findings,
                             const std::vector<BaselineEntry>& entries);

// ---- Reports -------------------------------------------------------------

// Human-readable report: one line per finding + summary tail.
std::string FindingsToText(const std::vector<Finding>& findings,
                           const BaselineResult* baseline);
// fastt-lint/1 JSON document.
std::string FindingsToJson(const std::vector<Finding>& findings,
                           const BaselineResult* baseline,
                           size_t files_scanned);
// SARIF 2.1.0 document (rule metadata from RuleCatalog()).
std::string FindingsToSarif(const std::vector<Finding>& findings);

// 1 when any unbaselined error-severity finding remains, else 0.
int ExitCodeFor(const std::vector<Finding>& findings);

// ---- Driver --------------------------------------------------------------

struct DriverOptions {
  std::string compdb_path;  // compile_commands.json
  std::string root;         // repo root; files are relativized against it
  // Only lint files whose repo-relative path starts with one of these
  // (default: "src/").
  std::vector<std::string> path_filters = {"src/"};
};

// Reads compile_commands.json, collects the translation units under the
// filters plus every project-local quoted include reachable from them
// (headers carry contracts too: SearchDeadline lives in portfolio.h), and
// loads their contents. Returns false with a reason on I/O or parse
// errors.
bool CollectSources(const DriverOptions& options,
                    std::vector<SourceFile>* out, std::string* error);

}  // namespace lint
}  // namespace fastt
