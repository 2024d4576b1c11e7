#include "layers.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cache/cache.hh"
#include "cache/repl/policy.hh"
#include "common/event_queue.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "mem/request_pool.hh"
#include "sim/system.hh"
#include "span_trace.hh"
#include "vm/page_table.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"
#include "workloads/benchmarks.hh"

namespace perfbench {

using namespace tacsim;

namespace {

/** Records drawn per workload spec for the stream-fed drives. */
constexpr std::size_t kRecordsPerSpec = 30000;
/** Instructions the Core::tick drive retires per spec (after warm-up). */
constexpr std::uint64_t kCoreInstrPerSpec = 20000;
/** Stub latencies: an L1D-like port and a DRAM-like lower level. */
constexpr Cycle kL1dStubLatency = 5;
constexpr Cycle kMemStubLatency = 100;

/** Defeats dead-code elimination of the drives' results. */
volatile std::uint64_t g_sink = 0;

/** A MemDevice that completes every request after a fixed latency. */
class FixedLatencyPort : public MemDevice
{
  public:
    FixedLatencyPort(EventQueue &eq, Cycle latency, RespSource src)
        : eq_(eq), latency_(latency), src_(src)
    {}

    void
    access(const MemRequestPtr &req) override
    {
        eq_.schedule(latency_,
                     [this, req] { req->complete(eq_.now(), src_); });
    }

    const std::string &name() const override { return name_; }

  private:
    EventQueue &eq_;
    Cycle latency_;
    RespSource src_;
    std::string name_ = "stub";
};

void
drain(EventQueue &eq)
{
    while (!eq.empty())
        eq.advanceTo(eq.nextEventCycle());
}

/** One memory record of a stream, with its translation precomputed. */
struct MemRef
{
    Addr vaddr, ip, paddr, pfnBase;
    PageSize ps;
    bool load;
};

struct SpecStream
{
    std::string spec;
    std::vector<TraceRecord> records;
    std::vector<MemRef> refs;
};

struct PolicySpec
{
    PolicyKind kind;
    ReplOpts opts;
    std::uint32_t sets, ways;
};

HugePagePolicy
guestPolicy(const SystemConfig &cfg)
{
    return {cfg.vm.hugePages2M, cfg.vm.hugePages1G, cfg.seed};
}

template <typename F>
double
timed(SpanTrace *spans, const char *name, F &&body)
{
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    if (spans)
        spans->add(name, "layer", "layers", t0, t1);
    return secondsBetween(t0, t1) * 1e9;
}

} // namespace

struct LayerInputs
{
    SystemConfig cfg; ///< the workload's baseline config
    CacheParams l2;   ///< as the System builds its L2C
    DramParams dram;  ///< as the System builds its DRAM
    std::vector<SpecStream> streams;
    std::map<std::string, PolicySpec> policies; ///< by metric slug
};

LayerDrives::LayerDrives(const WorkloadDef &w)
    : in_(std::make_unique<LayerInputs>())
{
    if (w.points.empty())
        throw std::invalid_argument("layer drive: workload has no points");
    const Point &first = w.points.front();
    in_->cfg = first.cfg;

    // The drives take the machine's parameters from the System the first
    // point builds, so they follow System rather than a copy of its
    // rules. The points of a workload differ only in policies.
    std::vector<std::unique_ptr<Workload>> wls;
    for (std::size_t t = 0; t < first.specs.size(); ++t)
        wls.push_back(
            makeWorkloadFromSpec(first.specs[t], first.cfg.seed + t));
    System sys(first.cfg, std::move(wls));
    in_->l2 = sys.l2(0).params();
    in_->dram = sys.dram().params();
    const CacheParams &llcSlice = sys.llc(0).params();

    std::vector<std::string> specs;
    for (const Point &p : w.points) {
        for (const std::string &s : p.specs)
            if (std::find(specs.begin(), specs.end(), s) == specs.end())
                specs.push_back(s);

        const SystemConfig &c = p.cfg;
        const PolicySpec l2{c.l2Policy, c.l2Opts, in_->l2.sets,
                            in_->l2.ways};
        const PolicySpec llc{c.llcPolicy, c.llcOpts, llcSlice.sets,
                             llcSlice.ways};
        for (const PolicySpec &ps : {l2, llc}) {
            const std::string slug = metricSlug(
                makePolicy(ps.kind, ps.sets, ps.ways, ps.opts)->name());
            in_->policies.emplace(slug, ps);
        }
    }

    // Streams: each spec's own generator, seeded like thread 0 of a
    // point, with translations from a page table under the workload's
    // huge-page policy (first-touch frames, as the simulator assigns).
    for (const std::string &spec : specs) {
        SpecStream s;
        s.spec = spec;
        auto wl = makeWorkloadFromSpec(spec, in_->cfg.seed);
        FrameAllocator frames;
        PageTable pt(frames, guestPolicy(in_->cfg));
        s.records.reserve(kRecordsPerSpec);
        for (std::size_t i = 0; i < kRecordsPerSpec; ++i) {
            const TraceRecord r = wl->next();
            s.records.push_back(r);
            if (!r.isMem())
                continue;
            const PageTable::WalkResult wr = pt.walk(r.vaddr);
            s.refs.push_back({r.vaddr, r.ip, wr.dataPaddr,
                              pageAlign(wr.dataPaddr, wr.pageSize),
                              wr.pageSize, r.isLoad()});
        }
        in_->streams.push_back(std::move(s));
    }
}

LayerDrives::~LayerDrives() = default;

LayerCosts
LayerDrives::measure(SpanTrace *spans)
{
    const SystemConfig &cfg = in_->cfg;
    LayerCosts out;
    std::uint64_t sink = 0;

    // workloads: Workload::next.
    {
        double ns = 0;
        std::uint64_t calls = 0;
        for (const SpecStream &s : in_->streams) {
            auto wl = makeWorkloadFromSpec(s.spec, cfg.seed);
            ns += timed(spans, "workloads.next", [&] {
                for (std::size_t i = 0; i < kRecordsPerSpec; ++i)
                    sink += wl->next().vaddr;
            });
            calls += kRecordsPerSpec;
        }
        out.nextNs = ns / double(calls);
    }

    // common: schedule one event per record, with a latency-like delay
    // drawn from the record, advancing the clock one cycle per four
    // records (roughly a core's dispatch rate).
    {
        EventQueue eq;
        std::uint64_t fired = 0;
        const double ns = timed(spans, "common.event_queue", [&] {
            for (const SpecStream &s : in_->streams) {
                for (std::size_t i = 0; i < s.records.size(); ++i) {
                    const TraceRecord &r = s.records[i];
                    const Cycle delay = r.isMem()
                        ? 5 + ((r.vaddr >> kBlockBits) ^ r.ip) % 250
                        : 1;
                    eq.schedule(delay, [&fired] { ++fired; });
                    if (i % 4 == 3)
                        eq.advanceTo(eq.now() + 1);
                }
            }
            drain(eq);
        });
        out.eqNsPerEvent = ns / double(std::max<std::uint64_t>(1, fired));
        sink += fired;
    }

    // core: Core::tick with every memory reference served by a
    // fixed-latency port (the L1D stub also serves the walker).
    {
        double ns = 0;
        std::uint64_t ticks = 0, retired = 0;
        for (const SpecStream &s : in_->streams) {
            EventQueue eq;
            FixedLatencyPort l1d(eq, kL1dStubLatency, RespSource::L1D);
            Tlb dtlb("DTLB", cfg.dtlbEntries, cfg.dtlbWays,
                     cfg.dtlbLatency);
            Tlb stlb("STLB", cfg.stlbEntries, cfg.stlbWays,
                     cfg.stlbLatency);
            FrameAllocator frames, hostFrames;
            PageTable pt(frames, guestPolicy(cfg));
            PageTable host(hostFrames,
                           {cfg.vm.hostHugePages2M, cfg.vm.hostHugePages1G,
                            cfg.seed + 1});
            PageTableWalker ptw(eq, &l1d, cfg.ptw);
            ptw.setStlb(&stlb);
            if (cfg.vm.nested)
                ptw.setNestedTranslation(&host);
            ptw.addAddressSpace(cfg.core.asid, &pt);
            auto wl = makeWorkloadFromSpec(s.spec, cfg.seed);
            Core core(cfg.core, eq, *wl, dtlb, stlb, ptw, l1d);

            Cycle cycle = 0;
            auto runTo = [&](std::uint64_t target) {
                while (core.retired() < target) {
                    eq.advanceTo(cycle);
                    core.tick();
                    ++cycle;
                }
            };
            runTo(kCoreInstrPerSpec / 4); // warm TLBs and page tables
            const Cycle start = cycle;
            ns += timed(spans, "core.tick",
                        [&] { runTo(core.retired() + kCoreInstrPerSpec); });
            ticks += cycle - start;
            retired += kCoreInstrPerSpec;
            sink += core.retired();
        }
        out.coreTickNs = ns / double(std::max<std::uint64_t>(1, ticks));
        out.coreNsPerInstr = ns / double(retired);
    }

    // vm: DTLB then STLB lookup per reference, filling on a miss; one
    // untimed pass warms the arrays.
    {
        double ns = 0;
        std::uint64_t lookups = 0;
        for (const SpecStream &s : in_->streams) {
            Tlb dtlb("DTLB", cfg.dtlbEntries, cfg.dtlbWays,
                     cfg.dtlbLatency);
            Tlb stlb("STLB", cfg.stlbEntries, cfg.stlbWays,
                     cfg.stlbLatency);
            std::uint64_t n = 0;
            auto pass = [&] {
                for (const MemRef &m : s.refs) {
                    Addr base = 0;
                    PageSize ps = PageSize::Size4K;
                    ++n;
                    if (dtlb.lookup(0, m.vaddr, base, ps))
                        continue;
                    ++n;
                    if (!stlb.lookup(0, m.vaddr, base, ps))
                        stlb.fill(0, m.vaddr, m.pfnBase, m.ps);
                    dtlb.fill(0, m.vaddr, m.pfnBase, m.ps);
                }
            };
            pass();
            n = 0;
            ns += timed(spans, "vm.tlb_lookup", pass);
            lookups += n;
            sink += dtlb.stats().hits;
        }
        out.tlbLookupNs = ns / double(std::max<std::uint64_t>(1, lookups));
    }

    // vm: one walk per change of 4K page in the stream, each run to
    // completion through a stub port; an untimed pass builds the tables
    // and warms the PSCs.
    {
        double ns = 0;
        std::uint64_t walks = 0;
        for (const SpecStream &s : in_->streams) {
            EventQueue eq;
            FixedLatencyPort port(eq, kL1dStubLatency, RespSource::L1D);
            FrameAllocator frames, hostFrames;
            PageTable pt(frames, guestPolicy(cfg));
            PageTable host(hostFrames,
                           {cfg.vm.hostHugePages2M, cfg.vm.hostHugePages1G,
                            cfg.seed + 1});
            PageTableWalker ptw(eq, &port, cfg.ptw);
            if (cfg.vm.nested)
                ptw.setNestedTranslation(&host);
            ptw.addAddressSpace(0, &pt);
            std::uint64_t n = 0;
            auto pass = [&] {
                Addr lastPage = ~Addr{0};
                for (const MemRef &m : s.refs) {
                    if (pageNumber(m.vaddr) == lastPage)
                        continue;
                    lastPage = pageNumber(m.vaddr);
                    ptw.walk(0, m.vaddr, m.ip, 0,
                             [&n](Addr, PageSize, RespSource) { ++n; });
                    drain(eq);
                }
            };
            pass();
            n = 0;
            ns += timed(spans, "vm.walk", pass);
            walks += n;
        }
        out.walkNs = ns / double(std::max<std::uint64_t>(1, walks));
    }

    // cache: a Cache with the System's L2C parameters and the workload's
    // L2 policy over a fixed-latency memory stub, one access at a time
    // with the queue drained. Hits replay resident blocks; misses use
    // addresses moved out of the stream's physical range so none can be
    // resident.
    {
        double hitNs = 0, missNs = 0;
        std::uint64_t hits = 0, misses = 0;
        for (const SpecStream &s : in_->streams) {
            EventQueue eq;
            FixedLatencyPort mem(eq, kMemStubLatency, RespSource::DRAM);
            const CacheParams &p = in_->l2;
            Cache cache(p, eq, &mem,
                        makePolicy(cfg.l2Policy, p.sets, p.ways,
                                   cfg.l2Opts, cfg.seed));
            auto request = [](Addr paddr, const MemRef &m) {
                MemRequestPtr r = makeRequest();
                r->paddr = paddr;
                r->vaddr = m.vaddr;
                r->ip = m.ip;
                r->type = m.load ? ReqType::Load : ReqType::Store;
                return r;
            };
            std::vector<MemRequestPtr> reqs;
            reqs.reserve(s.refs.size());
            for (const MemRef &m : s.refs)
                reqs.push_back(request(m.paddr, m));
            auto accessAll = [&] {
                for (const MemRequestPtr &r : reqs) {
                    cache.access(r);
                    drain(eq);
                }
            };
            accessAll(); // install the stream's blocks

            reqs.clear();
            for (const MemRef &m : s.refs)
                if (cache.contains(m.paddr))
                    reqs.push_back(request(m.paddr, m));
            const std::uint64_t hitsBefore =
                cache.stats().hits[0] + cache.stats().hits[1];
            hitNs += timed(spans, "cache.hit", accessAll);
            hits += reqs.size();
            if (cache.stats().hits[0] + cache.stats().hits[1] !=
                hitsBefore + reqs.size())
                throw std::runtime_error("cache drive: resident block "
                                         "missed");

            reqs.clear();
            for (const MemRef &m : s.refs)
                reqs.push_back(request(m.paddr + (Addr{1} << 44), m));
            missNs += timed(spans, "cache.miss", accessAll);
            misses += reqs.size();
        }
        out.cacheHitNs = hitNs / double(std::max<std::uint64_t>(1, hits));
        out.cacheMissNs =
            missNs / double(std::max<std::uint64_t>(1, misses));
    }

    // repl: every configured policy picks a victim, evicts it and fills
    // the incoming block, over a full array; one hit per four fills
    // keeps the promotion path trained. Leaf-PTE and replay records are
    // mixed in so the translation-conscious variants take their paths.
    for (const auto &[slug, ps] : in_->policies) {
        auto pol = makePolicy(ps.kind, ps.sets, ps.ways, ps.opts, cfg.seed);
        std::vector<BlockMeta> blocks(std::size_t(ps.sets) * ps.ways);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            blocks[i].valid = true;
            blocks[i].tag = Addr(i) << kBlockBits;
        }
        std::vector<AccessInfo> accesses;
        for (const SpecStream &s : in_->streams) {
            for (const MemRef &m : s.refs) {
                AccessInfo ai;
                ai.blockAddr = blockAlign(m.paddr);
                ai.vaddr = m.vaddr;
                ai.ip = m.ip;
                switch ((m.ip ^ (m.vaddr >> kPageBits)) % 8) {
                  case 0:
                    ai.cat = BlockCat::PtLeaf;
                    ai.ptLevel = 1;
                    ai.leafPte = true;
                    ai.vaddr = 0;
                    break;
                  case 1:
                    ai.cat = BlockCat::Replay;
                    ai.isReplay = true;
                    break;
                  default:
                    break;
                }
                accesses.push_back(ai);
            }
        }
        const double ns = timed(spans, "repl.victim", [&] {
            std::uint32_t i = 0;
            for (const AccessInfo &ai : accesses) {
                const auto set = static_cast<std::uint32_t>(
                    blockNumber(ai.blockAddr) & (ps.sets - 1));
                BlockMeta *row = &blocks[std::size_t(set) * ps.ways];
                const std::uint32_t way = pol->victim(set, ai, row);
                pol->onEvict(set, way, row[way]);
                row[way].tag = ai.blockAddr;
                row[way].cat = ai.cat;
                row[way].fillIp = ai.ip;
                pol->onFill(set, way, ai);
                if (++i % 4 == 0)
                    pol->onHit(set, (way + 1) % ps.ways, ai);
            }
        });
        out.victimNs[slug] =
            ns / double(std::max<std::size_t>(1, accesses.size()));
    }

    // mem: DRAM reads in batches of 16 outstanding, then drained.
    {
        EventQueue eq;
        DramParams dp = in_->dram;
        dp.tempo = false;
        Dram dram("DRAM", eq, dp);
        std::vector<MemRequestPtr> reqs;
        for (const SpecStream &s : in_->streams) {
            for (const MemRef &m : s.refs) {
                MemRequestPtr r = makeRequest();
                r->paddr = m.paddr;
                r->type = ReqType::Load;
                reqs.push_back(std::move(r));
            }
        }
        const double ns = timed(spans, "mem.dram_access", [&] {
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                dram.access(reqs[i]);
                if (i % 16 == 15)
                    drain(eq);
            }
            drain(eq);
        });
        out.dramAccessNs = ns / double(std::max<std::size_t>(1, reqs.size()));
        sink += dram.stats().reads;
    }

    // mem: makeRequest with a small live window, like MSHR lifetimes.
    {
        constexpr std::size_t kLive = 64;
        const std::size_t n = kRecordsPerSpec * in_->streams.size();
        std::vector<MemRequestPtr> ring(kLive);
        const double ns = timed(spans, "mem.request_alloc", [&] {
            for (std::size_t i = 0; i < n; ++i)
                ring[i % kLive] = makeRequest();
        });
        out.requestAllocNs = ns / double(n);
    }

    g_sink = g_sink + sink;
    return out;
}

} // namespace perfbench
