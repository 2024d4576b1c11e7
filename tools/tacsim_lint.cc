/**
 * @file
 * tacsim-lint CLI — the domain-aware static analyzer gate.
 *
 * Usage:
 *   tacsim-lint [options] PATH...
 *     PATH            file, or directory scanned recursively for
 *                     .cc/.hh sources (default: src/ under --root)
 *   --root DIR        repo root; findings are reported relative to it
 *                     and directory-scoped checks key off the relative
 *                     path (default: current directory)
 *   --list-checks     print the check catalog and exit
 *
 * The report is text on stdout: one "path:line:col: [check] message"
 * line per finding, then a summary line. A finding is accepted only by
 * an inline `tacsim-lint: allow(<check>) <reason>` (see lint/lint.hh).
 *
 * Exit status: 0 clean (suppressed findings allowed), 1 on any active
 * finding or malformed suppression, 2 on usage/IO errors.
 */

#include "lint/lint.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [--root DIR] [--list-checks] PATH...\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tacsim::lint;

    std::string root = ".";
    bool listChecks = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg.c_str());
                return 2;
            }
            root = argv[++i];
        } else if (arg == "--list-checks") {
            listChecks = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option %s\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }

    if (listChecks) {
        for (const auto &check : createChecks())
            std::printf("%-26s %s\n", check->id(), check->description());
        return 0;
    }

    if (paths.empty())
        paths.push_back(root + "/src");

    std::vector<std::pair<std::string, std::string>> files;
    try {
        for (const auto &[rel, abs] : collectFiles(root, paths)) {
            std::string content;
            if (!readFile(abs, content)) {
                std::fprintf(stderr, "error: cannot read %s\n",
                             abs.c_str());
                return 2;
            }
            files.emplace_back(rel, std::move(content));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    if (files.empty()) {
        std::fprintf(stderr, "error: no .cc/.hh files found under the "
                             "given paths\n");
        return 2;
    }

    const Report report = runLint(files, Options{});
    std::fputs(toText(report).c_str(), stdout);
    return report.clean() ? 0 : 1;
}
