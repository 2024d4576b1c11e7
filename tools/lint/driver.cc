/**
 * @file
 * tacsim-lint driver: suppression parsing, check orchestration and the
 * text report.
 */

#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>

namespace tacsim {
namespace lint {

namespace {

const char kMarker[] = "tacsim-lint:";

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
findingOrder(const Finding &a, const Finding &b)
{
    if (a.path != b.path)
        return a.path < b.path;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.col != b.col)
        return a.col < b.col;
    return a.check < b.check;
}

} // namespace

SuppressionScan
parseSuppressions(const std::string &src,
                  const std::set<std::string> &knownChecks)
{
    SuppressionScan out;
    std::istringstream is(src);
    std::string lineText;
    int lineNo = 0;
    while (std::getline(is, lineText)) {
        ++lineNo;
        const std::size_t mark = lineText.find(kMarker);
        if (mark == std::string::npos)
            continue;
        // The directive must live in a // comment.
        const std::size_t slashes = lineText.rfind("//", mark);
        if (slashes == std::string::npos) {
            out.malformed.emplace_back(
                lineNo, "tacsim-lint directive outside a // comment");
            continue;
        }
        std::string rest =
            trim(lineText.substr(mark + sizeof kMarker - 1));
        if (rest.compare(0, 6, "allow(") != 0) {
            out.malformed.emplace_back(
                lineNo,
                "expected 'allow(<check>[,<check>...]) <reason>' after "
                "'tacsim-lint:'");
            continue;
        }
        const std::size_t close = rest.find(')');
        if (close == std::string::npos) {
            out.malformed.emplace_back(lineNo,
                                       "unterminated allow( list");
            continue;
        }
        Suppression sup;
        std::string list = rest.substr(6, close - 6);
        std::string bad;
        std::size_t start = 0;
        while (start <= list.size()) {
            std::size_t comma = list.find(',', start);
            if (comma == std::string::npos)
                comma = list.size();
            const std::string name =
                trim(list.substr(start, comma - start));
            if (!name.empty()) {
                if (knownChecks.count(name) == 0 && bad.empty())
                    bad = name;
                sup.checks.push_back(name);
            }
            start = comma + 1;
        }
        sup.reason = trim(rest.substr(close + 1));
        if (sup.checks.empty()) {
            out.malformed.emplace_back(lineNo, "empty allow() list");
            continue;
        }
        if (!bad.empty()) {
            out.malformed.emplace_back(
                lineNo, "unknown check '" + bad + "' in allow()");
            continue;
        }
        if (sup.reason.empty()) {
            out.malformed.emplace_back(
                lineNo,
                "allow() without a reason — say why the finding is "
                "safe");
            continue;
        }
        // Whole-line comment => applies to the next line; trailing
        // comment => applies to its own line.
        const bool wholeLine =
            trim(lineText.substr(0, slashes)).empty();
        sup.line = wholeLine ? lineNo + 1 : lineNo;
        out.byLine.emplace(sup.line, std::move(sup));
    }
    return out;
}

Report
runLint(const std::vector<std::pair<std::string, std::string>> &files,
        const Options &opts)
{
    auto checks = createChecks();
    std::set<std::string> knownChecks;
    for (const auto &c : checks)
        knownChecks.insert(c->id());

    Project proj;
    proj.opts = &opts;
    std::vector<Finding> findings;
    std::map<std::string, SuppressionScan> suppressions;

    Report report;
    for (const auto &[path, content] : files) {
        ++report.filesScanned;
        FileUnit unit;
        unit.path = path;
        unit.tokens = lex(content);
        SuppressionScan sup = parseSuppressions(content, knownChecks);
        for (const auto &[line, what] : sup.malformed) {
            Finding f;
            f.check = "malformed-suppression";
            f.path = path;
            f.line = line;
            f.message = what;
            report.malformed.push_back(std::move(f));
        }
        suppressions.emplace(path, std::move(sup));
        for (auto &check : checks)
            check->scan(unit, proj, findings);
    }
    for (auto &check : checks)
        check->finalize(proj, findings);

    std::sort(findings.begin(), findings.end(), findingOrder);
    std::sort(report.malformed.begin(), report.malformed.end(),
              findingOrder);

    for (Finding &f : findings) {
        // Suppressed by an allow() on the finding line (or, e.g. for
        // struct-scoped findings, a designated extra line)?
        const std::string *reason = nullptr;
        auto it = suppressions.find(f.path);
        if (it != suppressions.end()) {
            std::vector<int> lines = f.extraSuppressLines;
            lines.push_back(f.line);
            for (int line : lines) {
                auto [lo, hi] = it->second.byLine.equal_range(line);
                for (auto s = lo; s != hi && reason == nullptr; ++s)
                    for (const std::string &c : s->second.checks)
                        if (c == f.check) {
                            reason = &s->second.reason;
                            break;
                        }
                if (reason != nullptr)
                    break;
            }
        }
        if (reason != nullptr)
            report.suppressed.push_back({std::move(f), *reason});
        else
            report.active.push_back(std::move(f));
    }
    return report;
}

std::string
toText(const Report &report)
{
    std::ostringstream os;
    for (const Finding &f : report.active)
        os << f.path << ":" << f.line << ":" << f.col << ": ["
           << f.check << "] " << f.message << "\n";
    for (const Finding &f : report.malformed)
        os << f.path << ":" << f.line << ": [malformed-suppression] "
           << f.message << "\n";
    os << "tacsim-lint: " << report.filesScanned << " files, "
       << report.active.size() << " finding(s), "
       << report.suppressed.size() << " suppressed, "
       << report.malformed.size() << " malformed suppression(s)\n";
    return os.str();
}

std::vector<std::pair<std::string, std::string>>
collectFiles(const std::string &root, const std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    const fs::path rootPath = fs::absolute(fs::path(root)).lexically_normal();
    std::vector<std::pair<std::string, std::string>> out;
    auto add = [&](const fs::path &p) {
        const std::string ext = p.extension().string();
        if (ext != ".cc" && ext != ".hh" && ext != ".cpp" && ext != ".h")
            return;
        const fs::path abs = fs::absolute(p).lexically_normal();
        std::string rel =
            abs.lexically_relative(rootPath).generic_string();
        if (rel.empty() || rel.compare(0, 2, "..") == 0)
            rel = abs.generic_string(); // outside root: absolute
        out.emplace_back(rel, abs.string());
    };
    for (const std::string &p : paths) {
        fs::path path(p);
        if (fs::is_directory(path)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(path))
                if (entry.is_regular_file())
                    add(entry.path());
        } else {
            add(path);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace lint
} // namespace tacsim
