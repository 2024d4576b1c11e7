/**
 * @file
 * tacsim-lint: a domain-aware static analyzer for the tacsim source tree.
 *
 * The simulator's correctness story has three mechanically checkable
 * pillars that grep cannot police precisely: the page-granule vocabulary
 * of common/types.hh (no hardcoded 4K math outside it), determinism
 * (one seeded Rng, no wall-clock, no hash-order-dependent iteration on
 * any path that feeds stats or event order), and metrics coverage
 * (every *Stats counter registered with obs::Registry so reset auditing
 * sees it). This tool owns a small lexer — comments, string literals,
 * raw strings and preprocessor context are stripped or tagged, every
 * token carries file/line/col — and a registry of checks that walk the
 * token stream, so findings land on the exact offending token instead
 * of a regex's line.
 *
 * Suppressions are explicit and reasoned:
 *
 *     code();  // tacsim-lint: allow(check-id) why this is safe
 *     // tacsim-lint: allow(check-id) applies to the next line
 *     next_line();
 *
 * A suppression with no reason, or naming an unknown check, is itself
 * a finding (malformed-suppression) — silence must be auditable. An
 * inline allow() is the only way to accept a finding: every other
 * finding fails the gate (scripts/lint.sh and the `lint.src` ctest).
 */

#ifndef TACSIM_TOOLS_LINT_LINT_HH
#define TACSIM_TOOLS_LINT_LINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace tacsim {
namespace lint {

// ------------------------------------------------------------ lexer --

enum class Tok : std::uint8_t
{
    Ident,  ///< identifier or keyword
    Number, ///< integer or floating literal (value set when integral)
    Punct,  ///< operator / punctuator, longest-match ("::", ">>", ...)
    String, ///< string or character literal (content not retained)
    Header, ///< <name> or "name" operand of an #include
};

struct Token
{
    Tok kind = Tok::Punct;
    std::string text;          ///< spelling (header name for Tok::Header)
    std::uint64_t value = 0;   ///< numeric value when valueValid
    bool valueValid = false;   ///< kind==Number and integral and parsed
    bool inPp = false;         ///< inside a preprocessor directive
    int line = 0;              ///< 1-based
    int col = 0;               ///< 1-based byte column of first char
};

/** Tokenize @p src. Comments never produce tokens; suppression comments
 *  are handled separately by parseSuppressions(). */
std::vector<Token> lex(const std::string &src);

// ----------------------------------------------------- suppressions --

struct Suppression
{
    int line = 0; ///< line the suppression *applies to*
    std::vector<std::string> checks;
    std::string reason;
};

struct SuppressionScan
{
    /** line -> suppression applying to that line. A whole-line
     *  `// tacsim-lint: allow(...)` comment applies to the next line;
     *  a trailing comment applies to its own line. */
    std::multimap<int, Suppression> byLine;
    /** Malformed directives (no reason / unknown check / bad syntax):
     *  pairs of (line, problem description). */
    std::vector<std::pair<int, std::string>> malformed;
};

SuppressionScan parseSuppressions(const std::string &src,
                                  const std::set<std::string> &knownChecks);

// ------------------------------------------------------ check model --

struct Options
{
    /** Directories (repo-relative prefixes) where node-based standard
     *  containers are banned in favour of AddrMap / flat vectors. */
    std::vector<std::string> hotPathPrefixes = {"src/cache", "src/vm",
                                                "src/mem", "src/common"};
    /** Files allowed to spell page geometry as raw numbers (the one
     *  place the vocabulary is *defined*). */
    std::vector<std::string> pageMathExempt = {"src/common/types.hh"};
};

struct FileUnit
{
    std::string path; ///< repo-relative, '/'-separated
    std::vector<Token> tokens;
};

struct Finding
{
    std::string check;
    std::string path;
    int line = 0;
    int col = 0;
    std::string message;
    /** Extra lines whose suppressions also cover this finding (e.g. a
     *  struct-level allow() covering every field it declares). */
    std::vector<int> extraSuppressLines;
};

/** Cross-file state accumulated during scan, consumed in finalize. */
struct Project
{
    const Options *opts = nullptr;

    /** Names declared anywhere with std::unordered_{map,set,...} type. */
    std::set<std::string> unorderedNames;
    struct RangeForSite
    {
        std::string path;
        int line = 0;
        int col = 0;
        std::string ident; ///< last identifier of the range expression
    };
    std::vector<RangeForSite> rangeFors;

    /** Member names referenced inside addCounter()/addHistogram() args. */
    std::set<std::string> registeredMembers;
    struct StatsField
    {
        std::string structName;
        std::string fieldName;
        std::string path;
        int line = 0;       ///< field declaration line
        int structLine = 0; ///< struct declaration line (for allow())
    };
    std::vector<StatsField> statsFields;
};

class Check
{
  public:
    virtual ~Check() = default;
    virtual const char *id() const = 0;
    virtual const char *description() const = 0;
    /** Per-file pass: emit file-local findings, accumulate Project
     *  state for finalize(). */
    virtual void scan(const FileUnit &f, Project &proj,
                      std::vector<Finding> &out) = 0;
    /** Whole-project pass after every file was scanned. */
    virtual void
    finalize(const Project &proj, std::vector<Finding> &out)
    {
        (void)proj;
        (void)out;
    }
};

/** The full registry, in stable order. */
std::vector<std::unique_ptr<Check>> createChecks();

// ----------------------------------------------------------- driver --

struct Report
{
    struct Suppressed
    {
        Finding finding;
        std::string reason;
    };

    std::vector<Finding> active;      ///< fail the gate
    std::vector<Suppressed> suppressed;
    std::vector<Finding> malformed;   ///< malformed-suppression findings
    int filesScanned = 0;

    bool
    clean() const
    {
        return active.empty() && malformed.empty();
    }
};

/** Run every check over @p files ((repo-relative path, content)
 *  pairs). Findings are sorted by (path, line, col, check). */
Report runLint(const std::vector<std::pair<std::string, std::string>> &files,
               const Options &opts);

/** Human-readable text report (one "path:line:col: [check] msg" per
 *  finding plus a summary line). */
std::string toText(const Report &report);

/**
 * Recursively collect *.cc / *.hh under each of @p paths (files are
 * taken as-is), returning (repo-relative path, absolute path) pairs
 * sorted by relative path. @p root anchors the relative spelling.
 */
std::vector<std::pair<std::string, std::string>>
collectFiles(const std::string &root, const std::vector<std::string> &paths);

} // namespace lint
} // namespace tacsim

#endif // TACSIM_TOOLS_LINT_LINT_HH
