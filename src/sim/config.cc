#include "sim/config.hh"

#include <cstdio>

#include "obs/path.hh"

namespace tacsim {

namespace {

void
emit(std::string &out, const char *key, std::uint64_t v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += key;
    out += ' ';
    out += buf;
    out += '\n';
}

void
emit(std::string &out, const char *key, double v)
{
    // %.17g round-trips every IEEE-754 double, so configs differing in
    // any representable fraction hash differently.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += key;
    out += ' ';
    out += buf;
    out += '\n';
}

void
emit(std::string &out, const char *key, const std::string &v)
{
    out += key;
    out += ' ';
    out += v;
    out += '\n';
}

void
emitOpts(std::string &out, const char *prefix, const ReplOpts &o)
{
    const std::string p(prefix);
    emit(out, (p + ".translation_rrpv0").c_str(),
         std::uint64_t{o.translationRrpv0});
    emit(out, (p + ".replay_evict_fast").c_str(),
         std::uint64_t{o.replayEvictFast});
    emit(out, (p + ".new_signatures").c_str(),
         std::uint64_t{o.newSignatures});
    emit(out, (p + ".replay_rrpv0").c_str(), std::uint64_t{o.replayRrpv0});
}

void
emitGeometry(std::string &out, const char *prefix, const CacheGeometry &g)
{
    const std::string p(prefix);
    emit(out, (p + ".size_bytes").c_str(), std::uint64_t{g.sizeBytes});
    emit(out, (p + ".ways").c_str(), std::uint64_t{g.ways});
    emit(out, (p + ".latency").c_str(), std::uint64_t{g.latency});
    emit(out, (p + ".mshrs").c_str(), std::uint64_t{g.mshrs});
}

} // namespace

SystemConfig
configForPoint(SystemConfig cfg, const std::string &key)
{
    cfg.obs.timeseriesPath =
        obs::expandPointPath(cfg.obs.timeseriesPath, key);
    cfg.obs.chromeTracePath =
        obs::expandPointPath(cfg.obs.chromeTracePath, key);
    if (cfg.obs.label.empty())
        cfg.obs.label = key;
    return cfg;
}

void
applyTranslationAware(SystemConfig &cfg,
                      const TranslationAwareOptions &opts)
{
    if (opts.tDrrip) {
        cfg.l2Opts.translationRrpv0 = true;
        cfg.l2Opts.replayEvictFast = true;
    }
    if (opts.newSignaturesOnly) {
        cfg.llcOpts.newSignatures = true;
    }
    if (opts.tShip) {
        cfg.llcOpts.newSignatures = true;
        cfg.llcOpts.translationRrpv0 = true;
    }
    if (opts.atp) {
        cfg.atpL2 = true;
        cfg.atpLlc = true;
    }
    if (opts.tempo) {
        cfg.dram.tempo = true;
    }
}

std::string
canonicalConfigText(const SystemConfig &cfg)
{
    std::string out;
    out.reserve(2048);
    out += "tacsim-config-v2\n";

    emit(out, "num_cores", std::uint64_t{cfg.numCores});
    emit(out, "threads_per_core", std::uint64_t{cfg.threadsPerCore});

    emit(out, "core.rob_size", std::uint64_t{cfg.core.robSize});
    emit(out, "core.issue_width", std::uint64_t{cfg.core.issueWidth});
    emit(out, "core.retire_width", std::uint64_t{cfg.core.retireWidth});

    emit(out, "dtlb.entries", std::uint64_t{cfg.dtlbEntries});
    emit(out, "dtlb.ways", std::uint64_t{cfg.dtlbWays});
    emit(out, "dtlb.latency", std::uint64_t{cfg.dtlbLatency});
    emit(out, "stlb.entries", std::uint64_t{cfg.stlbEntries});
    emit(out, "stlb.ways", std::uint64_t{cfg.stlbWays});
    emit(out, "stlb.latency", std::uint64_t{cfg.stlbLatency});

    emit(out, "ptw.max_concurrent_walks",
         std::uint64_t{cfg.ptw.maxConcurrentWalks});
    for (std::size_t i = 0; i < cfg.ptw.pscSizes.size(); ++i)
        emit(out,
             ("ptw.pscl" + std::to_string(i + 2) + "_entries").c_str(),
             std::uint64_t{cfg.ptw.pscSizes[i]});
    emit(out, "ptw.psc_latency", std::uint64_t{cfg.ptw.pscLatency});

    emitGeometry(out, "l1d", cfg.l1d);
    emitGeometry(out, "l2", cfg.l2);
    emitGeometry(out, "llc_per_core", cfg.llcPerCore);

    emit(out, "l2.policy", policyKindName(cfg.l2Policy));
    emitOpts(out, "l2.opts", cfg.l2Opts);
    emit(out, "llc.policy", policyKindName(cfg.llcPolicy));
    emitOpts(out, "llc.opts", cfg.llcOpts);
    emit(out, "llc.dead_block", std::uint64_t{cfg.llcDeadBlock});
    emit(out, "llc.csalt", std::uint64_t{cfg.llcCsalt});

    emit(out, "l1.prefetcher", prefetcherKindName(cfg.l1Prefetcher));
    emit(out, "l2.prefetcher", prefetcherKindName(cfg.l2Prefetcher));

    emit(out, "atp.l2", std::uint64_t{cfg.atpL2});
    emit(out, "atp.llc", std::uint64_t{cfg.atpLlc});

    emit(out, "ideal.l2_translations",
         std::uint64_t{cfg.idealL2Translations});
    emit(out, "ideal.l2_replays", std::uint64_t{cfg.idealL2Replays});
    emit(out, "ideal.llc_translations",
         std::uint64_t{cfg.idealLlcTranslations});
    emit(out, "ideal.llc_replays", std::uint64_t{cfg.idealLlcReplays});

    emit(out, "profile.cache_recall",
         std::uint64_t{cfg.profileCacheRecall});
    emit(out, "profile.stlb_recall", std::uint64_t{cfg.profileStlbRecall});

    emit(out, "dram.channels", std::uint64_t{cfg.dram.channels});
    emit(out, "dram.banks_per_channel",
         std::uint64_t{cfg.dram.banksPerChannel});
    emit(out, "dram.row_bytes", std::uint64_t{cfg.dram.rowBytes});
    emit(out, "dram.t_controller", std::uint64_t{cfg.dram.tController});
    emit(out, "dram.t_cas", std::uint64_t{cfg.dram.tCas});
    emit(out, "dram.t_rcd", std::uint64_t{cfg.dram.tRcd});
    emit(out, "dram.t_rp", std::uint64_t{cfg.dram.tRp});
    emit(out, "dram.t_burst", std::uint64_t{cfg.dram.tBurst});
    emit(out, "dram.tempo", std::uint64_t{cfg.dram.tempo});

    emit(out, "vm.huge_pages_2m", cfg.vm.hugePages2M);
    emit(out, "vm.huge_pages_1g", cfg.vm.hugePages1G);
    emit(out, "vm.nested", std::uint64_t{cfg.vm.nested});
    emit(out, "vm.host_huge_pages_2m", cfg.vm.hostHugePages2M);
    emit(out, "vm.host_huge_pages_1g", cfg.vm.hostHugePages1G);

    emit(out, "seed", cfg.seed);

    return out;
}

} // namespace tacsim
