/**
 * @file
 * Unit tests for MemRequestPtr, the counted handle to a pooled
 * MemRequest: copy and move keep one request alive, the last handle
 * destroys the request (and its callback's captures), its node is
 * reused, and under AddressSanitizer a read after release is reported.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "mem/request.hh"

namespace tacsim {
namespace {

/** A request whose onComplete holds the only reference to a token, so
 *  @p alive expires exactly when the request is destroyed. */
MemRequestPtr
trackedRequest(std::weak_ptr<int> &alive)
{
    auto token = std::make_shared<int>(0);
    alive = token;
    MemRequestPtr req = makeRequest();
    req->onComplete = [token](MemRequest &) {};
    return req;
}

TEST(Request, CopyMoveAndSelfAssignmentKeepOneLiveRequest)
{
    std::weak_ptr<int> alive;
    MemRequestPtr a = trackedRequest(alive);
    MemRequest *const raw = a.get();

    MemRequestPtr b = a;            // copy
    MemRequestPtr c = std::move(b); // move
    EXPECT_FALSE(b);
    MemRequestPtr d;
    EXPECT_FALSE(d);
    d = c;                          // copy-assign
    MemRequestPtr e;
    e = std::move(d);               // move-assign
    EXPECT_FALSE(d);
    MemRequestPtr &aliasA = a;
    a = aliasA;                     // self-copy-assign
    MemRequestPtr &aliasE = e;
    e = std::move(aliasE);          // self-move-assign

    EXPECT_EQ(a.get(), raw);
    EXPECT_EQ(c.get(), raw);
    EXPECT_EQ(e.get(), raw);
    EXPECT_EQ(alive.use_count(), 1);

    // Three handles remain (a, c, e); the request outlives all but the
    // last of them.
    a = nullptr;
    EXPECT_FALSE(alive.expired());
    c = nullptr;
    EXPECT_FALSE(alive.expired());
    e = nullptr;
    EXPECT_TRUE(alive.expired());
}

TEST(Request, LastHandleDestroysCallbackCaptures)
{
    std::weak_ptr<int> alive;
    {
        MemRequestPtr req = trackedRequest(alive);
        EXPECT_FALSE(alive.expired());
    }
    EXPECT_TRUE(alive.expired());
}

TEST(Request, NextRequestReusesTheFreedNodeDefaultConstructed)
{
    MemRequestPtr first = makeRequest();
    first->paddr = 0x1234;
    first->done = true;
    first->onComplete = [](MemRequest &) {};
    const MemRequest *const node = first.get();
    first = nullptr;

    MemRequestPtr next = makeRequest();
    EXPECT_EQ(next.get(), node);
    EXPECT_EQ(next->paddr, 0u);
    EXPECT_FALSE(next->done);
    EXPECT_FALSE(next->onComplete);
}

#if defined(__SANITIZE_ADDRESS__)
/** Read a request's paddr after its last handle has dropped. */
Addr
readAfterRelease()
{
    MemRequest *stale = nullptr;
    {
        MemRequestPtr req = makeRequest();
        req->paddr = 0x1234;
        stale = req.get();
    }
    return *static_cast<volatile Addr *>(&stale->paddr);
}
#endif

TEST(RequestDeathTest, ReadAfterReleaseIsReportedUnderAsan)
{
#if defined(__SANITIZE_ADDRESS__)
    // The node is parked on the pool's freelist, not freed, so only
    // the pool's poisoning makes this read visible to ASan.
    EXPECT_DEATH_IF_SUPPORTED(readAfterRelease(), "use-after-poison");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

} // namespace
} // namespace tacsim
