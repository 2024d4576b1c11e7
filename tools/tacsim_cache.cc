/**
 * @file
 * tacsim-cache: maintenance CLI for the persistent result cache
 * (serve::ResultCache, format tacsim-cache-v1).
 *
 *   info    totals: entry count, payload bytes, directory
 *   ls      one line per entry, most recently used first
 *   verify  CRC-check every entry, drop corrupt ones, adopt orphans
 *   gc      evict least-recently-used entries down to a byte budget
 *
 * All commands operate on a cache directory directly — run them
 * against a directory a sweep is writing to only between sweeps (the
 * index rewrite is atomic, but gc under a writer is a race you lose).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "serve/result_cache.hh"

namespace {

int
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: tacsim-cache <command> --dir DIR [options]\n"
        "\n"
        "  info   --dir DIR            entry count and payload bytes\n"
        "  ls     --dir DIR            entries, most recently used first\n"
        "  verify --dir DIR            CRC-check all entries; drop\n"
        "                              corrupt ones, adopt orphans;\n"
        "                              exit 1 when anything was dropped\n"
        "  gc     --dir DIR --max-bytes N\n"
        "                              evict LRU entries above N bytes\n");
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string command, dir;
    std::uint64_t maxBytes = 0;
    bool haveMaxBytes = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--help" || arg == "-h") {
            return usage(0);
        } else if (arg == "--dir" && hasValue) {
            dir = argv[++i];
        } else if (arg == "--max-bytes" && hasValue) {
            char *end = nullptr;
            maxBytes = std::strtoull(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0') {
                std::fprintf(stderr, "tacsim-cache: bad --max-bytes\n");
                return 2;
            }
            haveMaxBytes = true;
        } else if (command.empty() && arg[0] != '-') {
            command = arg;
        } else {
            std::fprintf(stderr, "tacsim-cache: unknown option '%s'\n",
                         arg.c_str());
            return usage(2);
        }
    }
    if (command.empty() || dir.empty())
        return usage(2);

    try {
        tacsim::serve::ResultCache cache(dir);
        if (command == "info") {
            std::printf("dir %s\nentries %zu\nbytes %llu\n",
                        cache.dir().c_str(), cache.entries(),
                        static_cast<unsigned long long>(
                            cache.totalBytes()));
            return 0;
        }
        if (command == "ls") {
            for (const auto &info : cache.list())
                std::printf("%s %llu %llu\n", info.pointKey.c_str(),
                            static_cast<unsigned long long>(info.bytes),
                            static_cast<unsigned long long>(info.seq));
            return 0;
        }
        if (command == "verify") {
            const std::size_t dropped = cache.verify();
            std::printf("verified %zu entries, dropped %zu\n",
                        cache.entries(), dropped);
            return dropped == 0 ? 0 : 1;
        }
        if (command == "gc") {
            if (!haveMaxBytes) {
                std::fprintf(stderr,
                             "tacsim-cache: gc needs --max-bytes\n");
                return 2;
            }
            const std::size_t evicted = cache.gcToBytes(maxBytes);
            std::printf("evicted %zu entries, %llu bytes remain\n",
                        evicted,
                        static_cast<unsigned long long>(
                            cache.totalBytes()));
            return 0;
        }
        std::fprintf(stderr, "tacsim-cache: unknown command '%s'\n",
                     command.c_str());
        return usage(2);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tacsim-cache: %s\n", e.what());
        return 1;
    }
}
