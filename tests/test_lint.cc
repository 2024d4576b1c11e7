/**
 * @file
 * tacsim-lint tests: lexer token/stripping behavior, suppression-comment
 * parsing, and — against the seeded fixture tree in tests/lint/ — one
 * positive and one suppressed case per registered check and the
 * driver's finding order.
 *
 * The fixtures mirror the src/ layout (tests/lint/src/cache/...,
 * tests/lint/src/vm/...) so directory-scoped checks fire naturally with
 * --root tests/lint. Line numbers asserted here are load-bearing: keep
 * them in sync when editing fixtures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hh"

namespace tacsim {
namespace lint {
namespace {

std::vector<std::pair<std::string, std::string>>
loadFixtures()
{
    const std::string root = TACSIM_LINT_FIXTURE_DIR;
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto &[rel, abs] : collectFiles(root, {root + "/src"})) {
        std::ifstream in(abs, std::ios::binary);
        std::ostringstream body;
        body << in.rdbuf();
        files.emplace_back(rel, body.str());
    }
    EXPECT_FALSE(files.empty()) << "no fixtures under " << root;
    return files;
}

Report
lintFixtures()
{
    return runLint(loadFixtures(), Options{});
}

bool
hasActive(const Report &r, const std::string &check, const std::string &path,
          int line)
{
    return std::any_of(r.active.begin(), r.active.end(),
                       [&](const Finding &f) {
                           return f.check == check && f.path == path &&
                               f.line == line;
                       });
}

bool
hasSuppressed(const Report &r, const std::string &check,
              const std::string &path, int line)
{
    return std::any_of(r.suppressed.begin(), r.suppressed.end(),
                       [&](const Report::Suppressed &s) {
                           return s.finding.check == check &&
                               s.finding.path == path &&
                               s.finding.line == line &&
                               !s.reason.empty();
                       });
}

int
countActive(const Report &r, const std::string &check,
            const std::string &path)
{
    return static_cast<int>(
        std::count_if(r.active.begin(), r.active.end(),
                      [&](const Finding &f) {
                          return f.check == check && f.path == path;
                      }));
}

// ---------------------------------------------------------------- lexer --

TEST(LintLexer, CommentsAndStringsNeverProduceValueTokens)
{
    const auto toks = lex("int a = 4096; // 4096 in a comment\n"
                          "/* 4096 in a block */ const char *s = \"4096\";\n"
                          "const char c = 'x';\n");
    int magic = 0;
    for (const auto &t : toks)
        if (t.kind == Tok::Number && t.valueValid && t.value == 4096)
            ++magic;
    EXPECT_EQ(magic, 1); // only the real literal on line 1
}

TEST(LintLexer, RawStringsAreOpaque)
{
    const auto toks = lex("auto s = R\"(shift >> 12 and 4096)\";\n"
                          "auto t = R\"xy(0xfff)xy\";\n");
    for (const auto &t : toks) {
        EXPECT_NE(t.kind, Tok::Number);
        if (t.kind == Tok::Punct) {
            EXPECT_NE(t.text, ">>");
        }
    }
}

TEST(LintLexer, IntegerLiteralForms)
{
    const auto toks = lex("a = 0x1000; b = 4'096; c = 0b1'0000'0000'0000; "
                          "d = 010000; e = 4096u; f = 4096.0;");
    int hits = 0;
    bool sawFloat = false;
    for (const auto &t : toks) {
        if (t.kind != Tok::Number)
            continue;
        if (t.valueValid && t.value == 4096)
            ++hits;
        if (t.text == "4096.0")
            sawFloat = !t.valueValid;
    }
    EXPECT_EQ(hits, 5); // hex, separated decimal, binary, octal, suffixed
    EXPECT_TRUE(sawFloat);
}

TEST(LintLexer, IncludeOperandLexesAsHeaderToken)
{
    const auto toks = lex("#include <cassert>\n#include \"vm/ptw.hh\"\n"
                          "int x = 1 < 2;\n");
    std::vector<std::string> headers;
    for (const auto &t : toks)
        if (t.kind == Tok::Header) {
            headers.push_back(t.text);
            EXPECT_TRUE(t.inPp);
        }
    ASSERT_EQ(headers.size(), 2u);
    EXPECT_EQ(headers[0], "cassert");
    EXPECT_EQ(headers[1], "vm/ptw.hh");
}

TEST(LintLexer, TracksLinesAcrossContinuationsAndComments)
{
    const auto toks = lex("/* span\n   two lines */ first\n#define M \\\n"
                          "    second\nthird\n");
    // first, '#', define, M, second, third
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[0].line, 2);
    EXPECT_EQ(toks[4].text, "second");
    EXPECT_TRUE(toks[4].inPp); // the continuation keeps the #define open
    EXPECT_EQ(toks[4].line, 4);
    EXPECT_EQ(toks[5].text, "third");
    EXPECT_EQ(toks[5].line, 5);
    EXPECT_FALSE(toks[5].inPp);
}

// --------------------------------------------------------- suppressions --

TEST(LintSuppressions, TrailingAppliesToOwnLineWholeLineToNext)
{
    const std::set<std::string> known = {"raw-assert", "banned-include"};
    const auto scan =
        parseSuppressions("assert(x); // tacsim-lint: allow(raw-assert) ok\n"
                          "// tacsim-lint: allow(banned-include) also ok\n"
                          "#include <cassert>\n",
                          known);
    EXPECT_TRUE(scan.malformed.empty());
    ASSERT_EQ(scan.byLine.count(1), 1u);
    EXPECT_EQ(scan.byLine.find(1)->second.checks.front(), "raw-assert");
    ASSERT_EQ(scan.byLine.count(3), 1u); // whole-line on 2 applies to 3
    EXPECT_EQ(scan.byLine.find(3)->second.checks.front(), "banned-include");
    EXPECT_EQ(scan.byLine.find(3)->second.reason, "also ok");
}

TEST(LintSuppressions, MalformedFormsAreReported)
{
    const std::set<std::string> known = {"raw-assert"};
    const auto scan = parseSuppressions(
        "a(); // tacsim-lint: allow(raw-assert)\n"     // no reason
        "b(); // tacsim-lint: allow(bogus-check) r\n"  // unknown check
        "c(); // tacsim-lint: disable everything\n",   // bad syntax
        known);
    EXPECT_EQ(scan.malformed.size(), 3u);
    EXPECT_TRUE(scan.byLine.empty());
}

// --------------------------------------------- checks, on the fixtures --

TEST(LintChecks, RegistryIsStable)
{
    const auto checks = createChecks();
    std::set<std::string> ids;
    for (const auto &c : checks)
        ids.insert(c->id());
    EXPECT_EQ(ids.size(), checks.size()) << "duplicate check id";
    const std::set<std::string> expected = {
        "magic-page-constant",  "nondeterminism-hazard",
        "unsequenced-rng",      "raw-assert",
        "banned-include",       "hot-path-container",
        "stats-registry-coverage"};
    EXPECT_EQ(ids, expected);
}

TEST(LintChecks, MagicPageConstant)
{
    const Report r = lintFixtures();
    const char *f = "src/prefetch/magic.cc";
    EXPECT_TRUE(hasActive(r, "magic-page-constant", f, 3)); // 4096
    EXPECT_TRUE(hasActive(r, "magic-page-constant", f, 4)); // 0xfff
    EXPECT_TRUE(hasActive(r, "magic-page-constant", f, 5)); // >> 12
    EXPECT_TRUE(hasActive(r, "magic-page-constant", f, 6)); // 0x1ff
    EXPECT_EQ(countActive(r, "magic-page-constant", f), 4);
    EXPECT_TRUE(hasSuppressed(r, "magic-page-constant", f, 7));
    // The vocabulary-defining header is exempt.
    EXPECT_EQ(countActive(r, "magic-page-constant", "src/common/types.hh"),
              0);
}

TEST(LintChecks, NondeterminismHazard)
{
    const Report r = lintFixtures();
    const char *f = "src/sim/nondet.cc";
    EXPECT_TRUE(hasActive(r, "nondeterminism-hazard", f, 7));  // std::rand()
    EXPECT_TRUE(hasActive(r, "nondeterminism-hazard", f, 8));  // steady_clock
    EXPECT_TRUE(hasActive(r, "nondeterminism-hazard", f, 13)); // range-for
    EXPECT_EQ(countActive(r, "nondeterminism-hazard", f), 3)
        << "'time' as a plain identifier and range-for over an array "
           "must not be flagged";
    EXPECT_TRUE(hasSuppressed(r, "nondeterminism-hazard", f, 20));
}

TEST(LintChecks, UnsequencedRng)
{
    const Report r = lintFixtures();
    const char *f = "src/workloads/unseq.cc";
    EXPECT_TRUE(hasActive(r, "unsequenced-rng", f, 6));
    EXPECT_EQ(countActive(r, "unsequenced-rng", f), 1)
        << "statement-separated draws, ?:-sequenced draws, and "
           "braced-init-list draws must not be flagged";
    EXPECT_TRUE(hasSuppressed(r, "unsequenced-rng", f, 16));
}

TEST(LintChecks, RawAssert)
{
    const Report r = lintFixtures();
    const char *f = "src/core/checks.cc";
    EXPECT_TRUE(hasActive(r, "raw-assert", f, 8));
    EXPECT_EQ(countActive(r, "raw-assert", f), 1) << "static_assert is fine";
    EXPECT_TRUE(hasSuppressed(r, "raw-assert", f, 13));
}

TEST(LintChecks, BannedInclude)
{
    const Report r = lintFixtures();
    const char *f = "src/core/checks.cc";
    EXPECT_TRUE(hasActive(r, "banned-include", f, 2)); // <cassert>
    EXPECT_EQ(countActive(r, "banned-include", f), 1);
    EXPECT_TRUE(hasSuppressed(r, "banned-include", f, 3)); // <random>
}

TEST(LintChecks, HotPathContainer)
{
    const Report r = lintFixtures();
    EXPECT_TRUE(hasActive(r, "hot-path-container", "src/cache/hot.cc", 8));
    EXPECT_TRUE(hasSuppressed(r, "hot-path-container", "src/cache/hot.cc",
                              10));
    // A per-object shared_ptr: a control block per walk, say.
    EXPECT_TRUE(hasActive(r, "hot-path-container", "src/cache/hot.cc", 11));
    EXPECT_TRUE(hasActive(r, "hot-path-container", "src/cache/hot.cc", 13));
    EXPECT_EQ(countActive(r, "hot-path-container", "src/cache/hot.cc"), 3);
    // Same container type outside the hot-path directories: not flagged
    // by this check (nondeterminism-hazard owns the iteration angle).
    EXPECT_EQ(countActive(r, "hot-path-container", "src/sim/nondet.cc"), 0);
}

TEST(LintChecks, StatsRegistryCoverage)
{
    const Report r = lintFixtures();
    const char *f = "src/vm/stats.hh";
    // 'stalls' is declared in stats.hh but registered nowhere; 'walks'
    // and 'latency' are registered in stats.cc (cross-file resolution).
    EXPECT_TRUE(hasActive(r, "stats-registry-coverage", f, 7));
    EXPECT_EQ(countActive(r, "stats-registry-coverage", f), 1);
    // 'rows' is covered by the struct-level allow() on ImportStats.
    EXPECT_TRUE(hasSuppressed(r, "stats-registry-coverage", f, 16));
}

TEST(LintChecks, MalformedSuppressionsAreFindings)
{
    const Report r = lintFixtures();
    const char *f = "src/obs/bad_suppress.cc";
    std::set<int> lines;
    for (const auto &m : r.malformed)
        if (m.path == f)
            lines.insert(m.line);
    EXPECT_EQ(lines, (std::set<int>{3, 4, 5}));
    EXPECT_FALSE(r.clean());
}

// -------------------------------------------------------------- driver --

TEST(LintDriver, FindingsAreSortedByPathLineCol)
{
    const Report r = lintFixtures();
    for (std::size_t i = 1; i < r.active.size(); ++i) {
        const Finding &a = r.active[i - 1];
        const Finding &b = r.active[i];
        EXPECT_LE(std::tie(a.path, a.line, a.col),
                  std::tie(b.path, b.line, b.col));
    }
}

} // namespace
} // namespace lint
} // namespace tacsim
