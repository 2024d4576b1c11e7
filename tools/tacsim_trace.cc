/**
 * @file
 * tacsim-trace: the trace subsystem's command-line front end.
 *
 *   record  run a synthetic benchmark and capture the instruction
 *           stream it consumes into a `tacsim-trace-v1` file (the
 *           canonical stats dump of the recording run is available via
 *           --dump for round-trip comparison)
 *   replay  run the simulator on a recorded trace (same knobs)
 *   info    print a trace file's header metadata
 *   verify  full-file integrity check (decode + counts + CRC)
 *   import  convert a ChampSim input_instr trace (raw, or gzip when
 *           built with zlib) into tacsim-trace-v1
 *
 * record/replay share budgets, config and observability flags, so
 *   tacsim-trace record --benchmark mcf --out t.tactrc --dump a.txt
 *   tacsim-trace replay --trace t.tactrc --dump b.txt
 * must produce byte-identical a.txt and b.txt — the trace.roundtrip.*
 * ctests gate on exactly that. A command refuses (exit 2, usage text)
 * any flag its usage line does not list.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#ifdef TACSIM_HAVE_ZLIB
#include <zlib.h>
#endif

#include "sim/config.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "trace/champsim.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace {

using namespace tacsim;

int
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: tacsim-trace <command> [options]\n"
        "\n"
        "  record  --benchmark NAME --out FILE [--instructions N]\n"
        "          [--warmup N] [--seed S] [--proposed] [--dump FILE]\n"
        "          [OBS]\n"
        "  replay  --trace FILE [--instructions N] [--warmup N]\n"
        "          [--seed S] [--proposed] [--dump FILE] [OBS]\n"
        "  info    FILE\n"
        "  verify  FILE\n"
        "  import  --in FILE --out FILE [--benchmark NAME]\n"
        "          [--footprint BYTES] [--seed S] [--limit N]\n"
        "\n"
        "record/replay budgets default to TACSIM_INSTRUCTIONS /\n"
        "TACSIM_WARMUP (runner defaults). --proposed layers the paper's\n"
        "T-DRRIP/T-SHiP/ATP/TEMPO onto the baseline config. OBS is\n"
        "[--sample-interval N] [--timeseries FILE] [--chrome-trace FILE]:\n"
        "a tacsim-timeseries-v1 JSONL sampled every N retired\n"
        "instructions (default 10000) and a Chrome-trace timeline.\n");
    return code;
}

struct Args
{
    std::string benchmark, out, tracePath, in, dump;
    std::string timeseries, chromeTrace;
    std::uint64_t instructions = 0, warmup = 0, seed = 1;
    std::uint64_t footprint = 0, limit = 0, sampleInterval = 0;
    bool proposed = false;
};

/** Parse @p cmd's flags (argv[2..]) into @p a; false on a command
 *  without flags or a flag its usage line does not list. */
bool
parseArgs(const std::string &cmd, int argc, char **argv, Args &a)
{
    // The flags on the command's usage line, space-delimited.
    const std::string run = " --instructions --warmup --seed --proposed"
                            " --dump --sample-interval --timeseries"
                            " --chrome-trace ";
    std::string flags;
    if (cmd == "record")
        flags = " --benchmark --out" + run;
    else if (cmd == "replay")
        flags = " --trace" + run;
    else if (cmd == "import")
        flags = " --in --out --benchmark --footprint --seed --limit ";
    else
        return false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (flags.find(" " + arg + " ") == std::string::npos)
            return false;
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "tacsim-trace: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto count = [&]() -> std::uint64_t {
            const char *v = value();
            const std::optional<std::uint64_t> n = parseCount(v);
            if (!n) {
                std::fprintf(stderr,
                             "tacsim-trace: %s \"%s\" is not a count: "
                             "use decimal digits\n",
                             arg.c_str(), v);
                std::exit(2);
            }
            return *n;
        };
        if (arg == "--benchmark")
            a.benchmark = value();
        else if (arg == "--out")
            a.out = value();
        else if (arg == "--trace")
            a.tracePath = value();
        else if (arg == "--in")
            a.in = value();
        else if (arg == "--dump")
            a.dump = value();
        else if (arg == "--instructions")
            a.instructions = count();
        else if (arg == "--warmup")
            a.warmup = count();
        else if (arg == "--seed")
            a.seed = count();
        else if (arg == "--footprint")
            a.footprint = count();
        else if (arg == "--limit")
            a.limit = count();
        else if (arg == "--proposed")
            a.proposed = true;
        else if (arg == "--sample-interval")
            a.sampleInterval = count();
        else if (arg == "--timeseries")
            a.timeseries = value();
        else if (arg == "--chrome-trace")
            a.chromeTrace = value();
        else
            return false;
    }
    return true;
}

SystemConfig
configFor(const Args &a)
{
    SystemConfig cfg{};
    cfg.seed = a.seed;
    cfg.obs.sampleInterval = a.sampleInterval;
    cfg.obs.timeseriesPath = a.timeseries;
    cfg.obs.chromeTracePath = a.chromeTrace;
    if (a.proposed) {
        TranslationAwareOptions ta;
        ta.tempo = true;
        applyTranslationAware(cfg, ta);
    }
    return cfg;
}

/** Print the canonical stats dump, or write it to --dump. */
int
emitDump(const RunResult &r, const std::string &dumpPath)
{
    const std::string dump = dumpRunResult(r);
    if (dumpPath.empty()) {
        std::fputs(dump.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(dumpPath.c_str(), "w");
    if (!f || std::fwrite(dump.data(), 1, dump.size(), f) != dump.size() ||
        std::fclose(f) != 0) {
        std::fprintf(stderr, "tacsim-trace: cannot write dump %s\n",
                     dumpPath.c_str());
        if (f)
            std::fclose(f);
        return 1;
    }
    std::fprintf(stderr, "tacsim-trace: stats dump written to %s\n",
                 dumpPath.c_str());
    return 0;
}

int
cmdRecord(const Args &a)
{
    if (a.benchmark.empty() || a.out.empty()) {
        std::fprintf(stderr,
                     "tacsim-trace record: --benchmark and --out are "
                     "required\n");
        return 2;
    }
    const SystemConfig cfg = configFor(a);
    std::unique_ptr<Workload> inner =
        makeWorkloadFromSpec(a.benchmark, cfg.seed);
    auto writer = std::make_shared<trace::TraceWriter>(
        a.out, trace::RecordingWorkload::headerFor(*inner, cfg.seed));

    std::vector<std::unique_ptr<Workload>> wls;
    wls.push_back(std::make_unique<trace::RecordingWorkload>(
        std::move(inner), writer));
    const RunResult r =
        runWorkloads(cfg, std::move(wls), a.instructions, a.warmup);
    writer->finalize();

    std::fprintf(stderr,
                 "tacsim-trace: recorded %llu records (%llu retired "
                 "instructions) -> %s\n",
                 static_cast<unsigned long long>(writer->recordCount()),
                 static_cast<unsigned long long>(r.instructions),
                 a.out.c_str());
    return emitDump(r, a.dump);
}

int
cmdReplay(const Args &a)
{
    if (a.tracePath.empty()) {
        std::fprintf(stderr,
                     "tacsim-trace replay: --trace is required\n");
        return 2;
    }
    const SystemConfig cfg = configFor(a);
    const RunResult r = runSpecMix(cfg, {"trace:" + a.tracePath},
                                   a.instructions, a.warmup);
    std::fprintf(stderr,
                 "tacsim-trace: replayed %s (%llu retired "
                 "instructions, IPC %.4f)\n",
                 a.tracePath.c_str(),
                 static_cast<unsigned long long>(r.instructions), r.ipc);
    return emitDump(r, a.dump);
}

int
cmdInfo(const std::string &path)
{
    const trace::TraceReader reader(path);
    const trace::TraceHeader &h = reader.header();
    const std::uint64_t bytes = reader.fileBytes();

    std::printf("file        %s\n", path.c_str());
    std::printf("format      tacsim-trace-v%u\n", trace::kVersion);
    std::printf("benchmark   %s\n", h.name.c_str());
    std::printf("footprint   %llu bytes\n",
                static_cast<unsigned long long>(h.footprint));
    std::printf("seed        %llu\n",
                static_cast<unsigned long long>(h.seed));
    std::printf("records     %llu\n",
                static_cast<unsigned long long>(h.recordCount));
    std::printf("file bytes  %llu\n",
                static_cast<unsigned long long>(bytes));
    if (h.recordCount) {
        std::printf("bytes/rec   %.2f\n",
                    double(bytes) / double(h.recordCount));
    } else {
        std::fprintf(stderr,
                     "tacsim-trace: %s: empty trace (0 records)\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const trace::VerifyResult v = trace::verifyTraceFile(path);
    if (!v.ok) {
        std::fprintf(stderr, "tacsim-trace: %s: FAILED: %s\n",
                     path.c_str(), v.error.c_str());
        return 1;
    }
    std::printf("%s: OK (%llu records, %llu payload bytes, CRC ok)\n",
                path.c_str(),
                static_cast<unsigned long long>(v.header.recordCount),
                static_cast<unsigned long long>(v.payloadBytes));
    return 0;
}

int
cmdImport(const Args &a)
{
    if (a.in.empty() || a.out.empty()) {
        std::fprintf(stderr,
                     "tacsim-trace import: --in and --out are required\n");
        return 2;
    }

    trace::ChampSimImportOptions opts;
    if (!a.benchmark.empty())
        opts.name = a.benchmark;
    opts.footprint = a.footprint;
    opts.seed = a.seed;
    opts.maxInstructions = a.limit;

    trace::ChampSimImportStats stats;
#ifdef TACSIM_HAVE_ZLIB
    // gzopen reads both gzip-compressed and plain files transparently.
    gzFile gz = gzopen(a.in.c_str(), "rb");
    if (!gz) {
        std::fprintf(stderr, "tacsim-trace: cannot open %s\n",
                     a.in.c_str());
        return 1;
    }
    try {
        stats = trace::importChampSim(
            [gz](void *buf, std::size_t n) -> std::size_t {
                const int got =
                    gzread(gz, buf, static_cast<unsigned>(n));
                if (got < 0)
                    throw std::runtime_error(
                        "champsim import: gzread failed");
                return static_cast<std::size_t>(got);
            },
            a.out, opts);
    } catch (...) {
        gzclose(gz);
        throw;
    }
    gzclose(gz);
#else
    std::FILE *f = std::fopen(a.in.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "tacsim-trace: cannot open %s\n",
                     a.in.c_str());
        return 1;
    }
    unsigned char magic[2] = {0, 0};
    const std::size_t head = std::fread(magic, 1, 2, f);
    if (head == 2 && magic[0] == 0x1F && magic[1] == 0x8B) {
        std::fclose(f);
        std::fprintf(stderr,
                     "tacsim-trace: %s is gzip-compressed but this "
                     "build lacks zlib; decompress it first\n",
                     a.in.c_str());
        return 1;
    }
    std::rewind(f);
    try {
        stats = trace::importChampSim(
            [f](void *buf, std::size_t n) {
                return std::fread(buf, 1, n, f);
            },
            a.out, opts);
    } catch (...) {
        std::fclose(f);
        throw;
    }
    std::fclose(f);
#endif

    std::printf("imported %llu instructions -> %llu records "
                "(%llu loads, %llu stores, %llu non-mem, "
                "%llu dependent) -> %s\n",
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.loads),
                static_cast<unsigned long long>(stats.stores),
                static_cast<unsigned long long>(stats.nonMem),
                static_cast<unsigned long long>(stats.dependent),
                a.out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(2);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help")
        return usage(0);

    try {
        if (cmd == "info" || cmd == "verify") {
            if (argc != 3)
                return usage(2);
            return cmd == "info" ? cmdInfo(argv[2]) : cmdVerify(argv[2]);
        }
        Args a;
        if (!parseArgs(cmd, argc, argv, a))
            return usage(2);
        if (cmd == "record")
            return cmdRecord(a);
        return cmd == "replay" ? cmdReplay(a) : cmdImport(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tacsim-trace: %s\n", e.what());
        return 1;
    }
}
