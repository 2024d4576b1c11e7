/**
 * @file
 * Shared helpers for unit tests: a scriptable memory device that records
 * the requests it receives, request factories, and a field-by-field
 * RunResult comparison.
 */

#ifndef TACSIM_TESTS_TEST_UTIL_HH
#define TACSIM_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "mem/request.hh"
#include "sim/runner.hh"

namespace tacsim::test {

/**
 * Bottom-of-hierarchy stub: records every request and completes it after
 * a fixed delay on the shared event queue.
 */
class MockMemory : public MemDevice
{
  public:
    explicit MockMemory(EventQueue &eq, Cycle delay = 100)
        : eq_(eq), delay_(delay)
    {}

    void
    access(const MemRequestPtr &req) override
    {
        requests.push_back(req);
        MemRequestPtr keep = req;
        eq_.schedule(delay_, [keep, this] {
            keep->complete(eq_.now(), RespSource::DRAM);
        });
    }

    const std::string &name() const override { return name_; }

    /** Requests of a given type received so far. */
    std::size_t
    countOf(ReqType t) const
    {
        std::size_t n = 0;
        for (const auto &r : requests)
            n += r->type == t;
        return n;
    }

    std::vector<MemRequestPtr> requests;

  private:
    EventQueue &eq_;
    Cycle delay_;
    std::string name_ = "mock";
};

/** Build a demand load request. */
inline MemRequestPtr
makeLoad(Addr paddr, Addr ip = 0x400000, bool replay = false)
{
    auto req = makeRequest();
    req->paddr = paddr;
    req->vaddr = paddr;
    req->ip = ip;
    req->type = ReqType::Load;
    req->isReplay = replay;
    return req;
}

/** Build a PTW translation read. */
inline MemRequestPtr
makeTranslation(Addr paddr, unsigned level, Addr replayBlock = 0,
                Addr ip = 0x400000)
{
    auto req = makeRequest();
    req->paddr = paddr;
    req->ip = ip;
    req->type = ReqType::Translation;
    req->ptLevel = static_cast<std::uint8_t>(level);
    req->leafPte = level == 1; // bare 4K walk: level 1 is the leaf
    req->replayBlockPaddr = replayBlock;
    return req;
}

/** Drain the event queue completely, at most @p maxCycles event
 *  cycles. */
inline void
drain(EventQueue &eq, std::uint64_t maxCycles = 1u << 20)
{
    while (!eq.empty() && maxCycles--)
        eq.advanceTo(eq.nextEventCycle());
}

/**
 * Expect @p a and @p b to agree on every RunResult field: the label,
 * each kRunResultFields row (doubles bit for bit, so a lossy copy cannot
 * hide behind a rounded print) and the per-thread vectors.
 */
inline void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    for (const RunResultField &f : kRunResultFields) {
        if (f.u64)
            EXPECT_EQ(a.*f.u64, b.*f.u64) << f.name;
        else
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.*f.f64),
                      std::bit_cast<std::uint64_t>(b.*f.f64))
                << f.name << ": " << a.*f.f64 << " vs " << b.*f.f64;
    }
    EXPECT_EQ(a.threadCycles, b.threadCycles);
    EXPECT_EQ(a.threadInstructions, b.threadInstructions);
}

} // namespace tacsim::test

#endif // TACSIM_TESTS_TEST_UTIL_HH
