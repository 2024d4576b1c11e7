/**
 * @file
 * The tacsim-lint check registry. Each check walks a file's token
 * stream (comments and literals already stripped by the lexer) and
 * either reports findings directly or accumulates cross-file state
 * resolved in finalize() — the stats-coverage and range-for checks
 * need to pair declarations in headers with uses in sources.
 *
 * Adding a check: subclass Check, implement id()/description()/scan()
 * (and finalize() if cross-file), append it in createChecks(), add a
 * seeded-violation fixture under tests/lint/ and a case to
 * tests/test_lint.cc, and document it in README.md's check catalog.
 */

#include "lint/lint.hh"

#include <algorithm>
#include <string>

namespace tacsim {
namespace lint {

namespace {

bool
pathStartsWith(const std::string &path, const std::string &prefix)
{
    if (path.size() < prefix.size() ||
        path.compare(0, prefix.size(), prefix) != 0)
        return false;
    return path.size() == prefix.size() || path[prefix.size()] == '/';
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == Tok::Ident && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Tok::Punct && t.text == text;
}

Finding
makeFinding(const char *check, const FileUnit &f, const Token &t,
            std::string message)
{
    Finding out;
    out.check = check;
    out.path = f.path;
    out.line = t.line;
    out.col = t.col;
    out.message = std::move(message);
    return out;
}

/**
 * Skip a balanced template-argument list starting at tokens[i] == "<".
 * Returns the index just past the matching close; ">>" closes two
 * levels. Gives up (returns @p i) if the list never closes — the
 * caller then treats the "<" as a comparison.
 */
std::size_t
skipTemplateArgs(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        const Token &t = toks[j];
        if (t.kind != Tok::Punct)
            continue;
        if (t.text == "<")
            ++depth;
        else if (t.text == ">")
            --depth;
        else if (t.text == ">>")
            depth -= 2;
        else if (t.text == ";" || t.text == "{")
            return i; // statement ended: not a template argument list
        if (depth <= 0)
            return j + 1;
    }
    return i;
}

// ------------------------------------------- magic-page-constant --

class MagicPageConstant : public Check
{
  public:
    const char *
    id() const override
    {
        return "magic-page-constant";
    }
    const char *
    description() const override
    {
        return "hardcoded 4K-page geometry (4096, 0xfff, 0x1ff, "
               "shift-by-12) outside common/types.hh; use the PageSize "
               "vocabulary (kPageSize, pageBytes, pageShift, ptIndex)";
    }

    void
    scan(const FileUnit &f, Project &proj,
         std::vector<Finding> &out) override
    {
        for (const std::string &exempt : proj.opts->pageMathExempt)
            if (f.path == exempt)
                return;
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind == Tok::Number && t.valueValid) {
                if (t.value == 4096)
                    out.push_back(makeFinding(
                        id(), f, t,
                        "integer literal " + t.text +
                            " is the 4K page size; use kPageSize / "
                            "pageBytes(ps) from common/types.hh"));
                else if (t.value == 4095)
                    out.push_back(makeFinding(
                        id(), f, t,
                        "integer literal " + t.text +
                            " is the 4K page-offset mask; use "
                            "pageOffset()/pageAlign() from "
                            "common/types.hh"));
                else if (t.value == 511)
                    out.push_back(makeFinding(
                        id(), f, t,
                        "integer literal " + t.text +
                            " is the page-table index mask; use "
                            "kPtEntries - 1 / ptIndex() from "
                            "common/types.hh"));
            }
            if (t.kind == Tok::Punct &&
                (t.text == "<<" || t.text == ">>") &&
                i + 1 < toks.size()) {
                const Token &rhs = toks[i + 1];
                if (rhs.kind == Tok::Number && rhs.valueValid &&
                    rhs.value == 12)
                    out.push_back(makeFinding(
                        id(), f, t,
                        "shift by literal 12 is 4K page math; use "
                            "pageNumber()/pageShift() from "
                            "common/types.hh"));
            }
        }
    }
};

// ----------------------------------------- nondeterminism-hazard --

class NondeterminismHazard : public Check
{
  public:
    const char *
    id() const override
    {
        return "nondeterminism-hazard";
    }
    const char *
    description() const override
    {
        return "wall-clock / libc randomness / std random engines / "
               "range-for over unordered containers: anything whose "
               "result can differ between identical runs; use "
               "common/rng.hh and ordered traversal";
    }

    void
    scan(const FileUnit &f, Project &proj,
         std::vector<Finding> &out) override
    {
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != Tok::Ident)
                continue;
            scanBannedName(f, toks, i, out);
            scanUnorderedDecl(toks, i, proj);
            scanRangeFor(f, toks, i, proj);
        }
    }

    void
    finalize(const Project &proj, std::vector<Finding> &out) override
    {
        for (const Project::RangeForSite &site : proj.rangeFors) {
            if (proj.unorderedNames.count(site.ident) == 0)
                continue;
            Finding fi;
            fi.check = id();
            fi.path = site.path;
            fi.line = site.line;
            fi.col = site.col;
            fi.message = "range-for over unordered container '" +
                site.ident +
                "': iteration order is hash/insertion dependent and "
                "must not reach stats or event order; iterate sorted "
                "keys or an ordered structure";
            out.push_back(std::move(fi));
        }
    }

  private:
    static bool
    bannedTypeName(const std::string &s)
    {
        // Names that are hazardous wherever they appear (types whose
        // very use implies wall-clock or non-seeded randomness).
        static const char *const kNames[] = {
            "random_device",     "mt19937",      "mt19937_64",
            "minstd_rand",       "minstd_rand0", "default_random_engine",
            "system_clock",      "steady_clock", "high_resolution_clock",
            "knuth_b",           "ranlux24",     "ranlux48",
        };
        return std::find(std::begin(kNames), std::end(kNames), s) !=
            std::end(kNames);
    }

    static bool
    bannedCallName(const std::string &s)
    {
        // Names flagged only in call position (short common words).
        static const char *const kNames[] = {
            "rand",      "srand",        "rand_r",   "drand48",
            "lrand48",   "mrand48",      "time",     "clock",
            "gettimeofday", "clock_gettime", "timespec_get",
            "localtime", "gmtime",       "strftime", "ctime",
        };
        return std::find(std::begin(kNames), std::end(kNames), s) !=
            std::end(kNames);
    }

    void
    scanBannedName(const FileUnit &f, const std::vector<Token> &toks,
                   std::size_t i, std::vector<Finding> &out)
    {
        const Token &t = toks[i];
        if (bannedTypeName(t.text)) {
            out.push_back(makeFinding(
                id(), f, t,
                "'" + t.text +
                    "' leaks wall-clock or unseeded randomness into a "
                    "simulation built to be bit-reproducible; use "
                    "tacsim::Rng (common/rng.hh) or simulated time"));
            return;
        }
        if (!bannedCallName(t.text))
            return;
        // Call position only: followed by '(' and not a member access
        // (x.time(...)); qualified calls are flagged only for std::.
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
            return;
        if (i > 0 && (isPunct(toks[i - 1], ".") ||
                      isPunct(toks[i - 1], "->")))
            return;
        if (i > 0 && isPunct(toks[i - 1], "::")) {
            const bool stdQualified = i >= 2 &&
                (isIdent(toks[i - 2], "std") ||
                 isIdent(toks[i - 2], "chrono"));
            if (!stdQualified)
                return;
        }
        out.push_back(makeFinding(
            id(), f, t,
            "call to '" + t.text +
                "' is nondeterministic (wall clock / libc rng); "
                "simulated behavior must derive from tacsim::Rng and "
                "the event queue"));
    }

    static void
    scanUnorderedDecl(const std::vector<Token> &toks, std::size_t i,
                      Project &proj)
    {
        const Token &t = toks[i];
        if (t.text != "unordered_map" && t.text != "unordered_set" &&
            t.text != "unordered_multimap" &&
            t.text != "unordered_multiset")
            return;
        std::size_t j = i + 1;
        if (j < toks.size() && isPunct(toks[j], "<")) {
            const std::size_t past = skipTemplateArgs(toks, j);
            if (past == j)
                return;
            j = past;
        }
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isIdent(toks[j], "const")))
            ++j;
        if (j < toks.size() && toks[j].kind == Tok::Ident)
            proj.unorderedNames.insert(toks[j].text);
    }

    void
    scanRangeFor(const FileUnit &f, const std::vector<Token> &toks,
                 std::size_t i, Project &proj)
    {
        if (!isIdent(toks[i], "for") || i + 1 >= toks.size() ||
            !isPunct(toks[i + 1], "("))
            return;
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")")) {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (isPunct(toks[j], ":") && depth == 1 && colon == 0)
                colon = j;
            else if (isPunct(toks[j], ";") && depth == 1)
                return; // classic three-clause for
        }
        if (colon == 0 || close == 0 || close <= colon + 1)
            return;
        const Token &last = toks[close - 1];
        if (last.kind != Tok::Ident)
            return; // call or subscript result: type unknowable here
        Project::RangeForSite site;
        site.path = f.path;
        site.line = toks[i].line;
        site.col = toks[i].col;
        site.ident = last.text;
        proj.rangeFors.push_back(std::move(site));
    }
};

// ------------------------------------------------ unsequenced-rng --

class UnsequencedRng : public Check
{
  public:
    const char *
    id() const override
    {
        return "unsequenced-rng";
    }
    const char *
    description() const override
    {
        return "two Rng draws inside one expression: argument and "
               "operand evaluation order is unspecified, so the draw "
               "order (and thus the whole stream) can differ between "
               "compilers; sequence the draws into separate statements";
    }

    void
    scan(const FileUnit &f, Project &,
         std::vector<Finding> &out) override
    {
        const auto &toks = f.tokens;
        // Bracket stack: '(' entries remember whether the paren is an
        // if/while/switch condition (its ')' is then a sequence point).
        std::vector<char> brackets;
        std::vector<bool> condParen;
        int drawsInExpr = 0;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind == Tok::Punct) {
                const std::string &p = t.text;
                if (p == "(") {
                    const bool cond = i > 0 &&
                        (isIdent(toks[i - 1], "if") ||
                         isIdent(toks[i - 1], "while") ||
                         isIdent(toks[i - 1], "switch"));
                    brackets.push_back('(');
                    condParen.push_back(cond);
                } else if (p == ")") {
                    if (!brackets.empty() && brackets.back() == '(') {
                        if (condParen.back())
                            drawsInExpr = 0; // condition fully evaluated
                        brackets.pop_back();
                        condParen.pop_back();
                    }
                } else if (p == "[") {
                    brackets.push_back('[');
                    condParen.push_back(false);
                } else if (p == "]") {
                    if (!brackets.empty() && brackets.back() == '[') {
                        brackets.pop_back();
                        condParen.pop_back();
                    }
                } else if (p == "{") {
                    brackets.push_back('{');
                    condParen.push_back(false);
                    drawsInExpr = 0;
                } else if (p == "}") {
                    if (!brackets.empty() && brackets.back() == '{') {
                        brackets.pop_back();
                        condParen.pop_back();
                    }
                    drawsInExpr = 0;
                } else if (p == ";" || p == "&&" || p == "||" ||
                           p == "?" || p == ":") {
                    // Genuine sequence points (statement boundaries;
                    // &&/||/?: sequence their operands).
                    drawsInExpr = 0;
                } else if (p == ",") {
                    // A comma directly inside braces is a
                    // braced-init-list element separator — sequenced
                    // left to right. A comma inside parens separates
                    // function arguments — NOT sequenced; keep
                    // counting.
                    if (!brackets.empty() && brackets.back() == '{')
                        drawsInExpr = 0;
                }
                continue;
            }
            if (isDraw(toks, i)) {
                if (++drawsInExpr >= 2)
                    out.push_back(makeFinding(
                        id(), f, t,
                        "second Rng draw in the same expression; "
                        "evaluation order between the draws is "
                        "unspecified — hoist one into its own "
                        "statement"));
            }
        }
    }

  private:
    /** toks[i] is an rng-ish object followed by ./-> and a draw
     *  method: rng_.next(), rng->range(n), pageRng.uniform(). */
    static bool
    isDraw(const std::vector<Token> &toks, std::size_t i)
    {
        const Token &t = toks[i];
        if (t.kind != Tok::Ident || i + 3 >= toks.size())
            return false;
        const std::string &n = t.text;
        const bool rngish = n == "rng" || n == "rng_" ||
            (n.size() > 3 &&
             (n.compare(n.size() - 3, 3, "rng") == 0 ||
              n.compare(n.size() - 4, 4, "rng_") == 0 ||
              n.compare(n.size() - 3, 3, "Rng") == 0 ||
              n.compare(n.size() - 4, 4, "Rng_") == 0));
        if (!rngish)
            return false;
        if (!isPunct(toks[i + 1], ".") && !isPunct(toks[i + 1], "->"))
            return false;
        const Token &m = toks[i + 2];
        if (m.kind != Tok::Ident ||
            (m.text != "next" && m.text != "range" &&
             m.text != "uniform" && m.text != "chance"))
            return false;
        return isPunct(toks[i + 3], "(");
    }
};

// --------------------------------------------------- raw-assert --

class RawAssert : public Check
{
  public:
    const char *
    id() const override
    {
        return "raw-assert";
    }
    const char *
    description() const override
    {
        return "raw assert() compiles away under NDEBUG; use "
               "TACSIM_CHECK (always on) or TACSIM_DCHECK "
               "(debug/verify builds) from common/types.hh";
    }

    void
    scan(const FileUnit &f, Project &,
         std::vector<Finding> &out) override
    {
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (!isIdent(t, "assert") || t.inPp)
                continue;
            if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
                continue;
            if (i > 0 && (isPunct(toks[i - 1], ".") ||
                          isPunct(toks[i - 1], "->") ||
                          isPunct(toks[i - 1], "::")))
                continue;
            out.push_back(makeFinding(
                id(), f, t,
                "raw assert() vanishes in NDEBUG builds; use "
                "TACSIM_CHECK / TACSIM_DCHECK (common/types.hh) so "
                "release runs keep their invariants"));
        }
    }
};

// ------------------------------------------------ banned-include --

class BannedInclude : public Check
{
  public:
    const char *
    id() const override
    {
        return "banned-include";
    }
    const char *
    description() const override
    {
        return "headers whose facilities are banned in src/: "
               "<cassert>/<assert.h> (TACSIM_CHECK), <random> "
               "(common/rng.hh), <ctime>/<time.h>/<chrono> "
               "(simulated time; wall-clock reporting needs allow())";
    }

    void
    scan(const FileUnit &f, Project &,
         std::vector<Finding> &out) override
    {
        struct Ban
        {
            const char *header;
            const char *why;
        };
        static const Ban kBans[] = {
            {"cassert", "the TACSIM_CHECK macros replace assert()"},
            {"assert.h", "the TACSIM_CHECK macros replace assert()"},
            {"random",
             "std random engines are unseeded or platform-varying; "
             "use tacsim::Rng (common/rng.hh)"},
            {"ctime", "wall-clock time must not drive simulation"},
            {"time.h", "wall-clock time must not drive simulation"},
            {"chrono",
             "simulated time comes from the event queue; wall-clock "
             "measurement for reporting only is an allow() case"},
        };
        for (const Token &t : f.tokens) {
            if (t.kind != Tok::Header)
                continue;
            for (const Ban &b : kBans) {
                if (t.text == b.header) {
                    out.push_back(makeFinding(
                        id(), f, t,
                        "#include <" + t.text + "> is banned in src/: " +
                            b.why));
                    break;
                }
            }
        }
    }
};

// -------------------------------------------- hot-path-container --

class HotPathContainer : public Check
{
  public:
    const char *
    id() const override
    {
        return "hot-path-container";
    }
    const char *
    description() const override
    {
        return "node-based std::map/std::unordered_map/set or "
               "std::shared_ptr in hot-path directories (src/cache, "
               "src/vm, src/mem, src/common): a heap node per insert "
               "and a pointer chase per lookup, or a control block and "
               "atomic counts per object; use AddrMap "
               "(common/addr_map.hh), a flat vector or a slot-addressed "
               "pool";
    }

    void
    scan(const FileUnit &f, Project &proj,
         std::vector<Finding> &out) override
    {
        bool hot = false;
        for (const std::string &prefix : proj.opts->hotPathPrefixes)
            if (pathStartsWith(f.path, prefix))
                hot = true;
        if (!hot)
            return;
        static const char *const kBanned[] = {
            "unordered_map", "unordered_set", "unordered_multimap",
            "unordered_multiset", "map", "multimap", "multiset",
            "shared_ptr", "make_shared",
        };
        const auto &toks = f.tokens;
        for (std::size_t i = 1; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != Tok::Ident)
                continue;
            // Only std:: qualified uses: plain "map" would drown in
            // false positives (AddrMap methods, local names).
            if (!isPunct(toks[i - 1], "::") || i < 2 ||
                !isIdent(toks[i - 2], "std"))
                continue;
            if (std::find_if(std::begin(kBanned), std::end(kBanned),
                             [&](const char *b) { return t.text == b; }) ==
                std::end(kBanned))
                continue;
            const bool shared =
                t.text == "shared_ptr" || t.text == "make_shared";
            out.push_back(makeFinding(
                id(), f, t,
                "std::" + t.text +
                    (shared
                         ? " in a hot-path directory: a control block "
                           "allocation + atomic reference counts per "
                           "object; use a slot-addressed pool or "
                           "unique_ptr, or allow() with a cold-path "
                           "justification"
                         : " in a hot-path directory: node allocation + "
                           "pointer chasing; use AddrMap "
                           "(common/addr_map.hh), a flat vector, or "
                           "allow() with a cold-path justification")));
        }
    }
};

// ------------------------------------- stats-registry-coverage --

class StatsRegistryCoverage : public Check
{
  public:
    const char *
    id() const override
    {
        return "stats-registry-coverage";
    }
    const char *
    description() const override
    {
        return "every counter/histogram field of a *Stats struct must "
               "be registered with obs::Registry (addCounter / "
               "addHistogram) — unregistered stats escape reset "
               "auditing and sampling";
    }

    void
    scan(const FileUnit &f, Project &proj,
         std::vector<Finding> &) override
    {
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            collectRegistrations(toks, i, proj);
            collectStatsStruct(f, toks, i, proj);
        }
    }

    void
    finalize(const Project &proj, std::vector<Finding> &out) override
    {
        for (const Project::StatsField &field : proj.statsFields) {
            if (proj.registeredMembers.count(field.fieldName) != 0)
                continue;
            Finding fi;
            fi.check = id();
            fi.path = field.path;
            fi.line = field.line;
            fi.message = "counter '" + field.structName + "::" +
                field.fieldName +
                "' is never registered with obs::Registry "
                "(addCounter/addHistogram): it will be invisible to "
                "samplers and the resetStats() audit";
            fi.extraSuppressLines.push_back(field.structLine);
            out.push_back(std::move(fi));
        }
    }

  private:
    static void
    collectRegistrations(const std::vector<Token> &toks, std::size_t i,
                         Project &proj)
    {
        const Token &t = toks[i];
        if (t.kind != Tok::Ident ||
            (t.text != "addCounter" && t.text != "addHistogram"))
            return;
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
            return;
        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")")) {
                if (--depth == 0)
                    break;
            } else if (toks[j].kind == Tok::Ident && j > 0 &&
                       (isPunct(toks[j - 1], ".") ||
                        isPunct(toks[j - 1], "->")))
                proj.registeredMembers.insert(toks[j].text);
        }
    }

    void
    collectStatsStruct(const FileUnit &f, const std::vector<Token> &toks,
                       std::size_t i, Project &proj)
    {
        if (!isIdent(toks[i], "struct") || i + 1 >= toks.size())
            return;
        const Token &nameTok = toks[i + 1];
        if (nameTok.kind != Tok::Ident || nameTok.text.size() < 6 ||
            nameTok.text.compare(nameTok.text.size() - 5, 5, "Stats") !=
                0)
            return;
        // Find the opening brace (skip "final", base clauses).
        std::size_t open = i + 2;
        while (open < toks.size() && !isPunct(toks[open], "{") &&
               !isPunct(toks[open], ";"))
            ++open;
        if (open >= toks.size() || isPunct(toks[open], ";"))
            return; // forward declaration
        parseBody(f, toks, open, nameTok, proj);
    }

    /**
     * Walk the struct body collecting field declarations whose type
     * mentions uint64_t or Histogram. Method definitions (detected by
     * a '(' before any initializer) are skipped wholesale; nested
     * brace groups (method bodies, brace initializers) are skipped by
     * balance so their contents never masquerade as fields.
     */
    static void
    parseBody(const FileUnit &f, const std::vector<Token> &toks,
              std::size_t open, const Token &nameTok, Project &proj)
    {
        std::size_t j = open + 1;
        bool declHasType = false;   // saw uint64_t / Histogram
        bool declIsFunc = false;    // saw '(' while scanning the decl
        bool nameLocked = false;    // stop updating at '=', '[', '{'
        const Token *fieldName = nullptr;
        auto resetDecl = [&] {
            declHasType = declIsFunc = nameLocked = false;
            fieldName = nullptr;
        };
        while (j < toks.size()) {
            const Token &t = toks[j];
            if (isPunct(t, "}")) // end of struct body
                break;
            if (isPunct(t, "{")) {
                // Skip any nested brace group. For a field with a
                // brace initializer the name is already locked in; for
                // a method body this ends the member.
                int depth = 0;
                while (j < toks.size()) {
                    if (isPunct(toks[j], "{"))
                        ++depth;
                    else if (isPunct(toks[j], "}") && --depth == 0)
                        break;
                    ++j;
                }
                ++j;
                if (!nameLocked) {
                    // `Histogram h{...}` locks at '{'; a '{' with no
                    // preceding name is a method body — member over.
                    if (declIsFunc || fieldName == nullptr) {
                        resetDecl();
                        continue;
                    }
                }
                nameLocked = true;
                continue;
            }
            if (isPunct(t, "(")) {
                declIsFunc = true;
                int depth = 0;
                while (j < toks.size()) {
                    if (isPunct(toks[j], "("))
                        ++depth;
                    else if (isPunct(toks[j], ")") && --depth == 0)
                        break;
                    ++j;
                }
                ++j;
                continue;
            }
            if (isPunct(t, ";")) {
                if (declHasType && !declIsFunc && fieldName != nullptr) {
                    Project::StatsField field;
                    field.structName = nameTok.text;
                    field.fieldName = fieldName->text;
                    field.path = f.path;
                    field.line = fieldName->line;
                    field.structLine = nameTok.line;
                    proj.statsFields.push_back(std::move(field));
                }
                resetDecl();
                ++j;
                continue;
            }
            if (isPunct(t, "=") || isPunct(t, "["))
                nameLocked = true;
            if (t.kind == Tok::Ident) {
                if (t.text == "uint64_t" || t.text == "Histogram")
                    declHasType = true;
                if (!nameLocked)
                    fieldName = &t;
            }
            ++j;
        }
    }
};

} // namespace

std::vector<std::unique_ptr<Check>>
createChecks()
{
    std::vector<std::unique_ptr<Check>> checks;
    checks.push_back(std::make_unique<MagicPageConstant>());
    checks.push_back(std::make_unique<NondeterminismHazard>());
    checks.push_back(std::make_unique<UnsequencedRng>());
    checks.push_back(std::make_unique<RawAssert>());
    checks.push_back(std::make_unique<BannedInclude>());
    checks.push_back(std::make_unique<HotPathContainer>());
    checks.push_back(std::make_unique<StatsRegistryCoverage>());
    return checks;
}

} // namespace lint
} // namespace tacsim
