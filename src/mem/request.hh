/**
 * @file
 * The request object that flows through the memory hierarchy, and the
 * abstract device interface every level (cache, DRAM controller)
 * implements.
 *
 * The paper's mechanisms hinge on the hierarchy being able to tell three
 * kinds of block apart: page-table-entry blocks (tagged with their
 * page-table level), *replay* data blocks (demand loads whose translation
 * missed the STLB), and ordinary non-replay data. MemRequest carries those
 * flags end to end — this is the "additional flags from the page-table
 * walker into the cache hierarchy" the paper's abstract calls out.
 */

#ifndef TACSIM_MEM_REQUEST_HH
#define TACSIM_MEM_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <utility>

#include "common/types.hh"
#include "mem/request_pool.hh"

namespace tacsim {

/** Kind of memory transaction. */
enum class ReqType : std::uint8_t
{
    Load,        ///< demand data read
    Store,       ///< demand data write (modelled as read-for-ownership)
    Prefetch,    ///< hardware prefetch
    Writeback,   ///< dirty eviction travelling down
    Translation, ///< page-table-walker read of a PTE block
};

/** Which hierarchy level produced the data for a completed request. */
enum class RespSource : std::uint8_t
{
    None,
    L1D,
    L2C,
    LLC,
    DRAM,
    IdealL2C, ///< hit granted by the ideal-L2C mode (paper Fig. 2)
    IdealLLC, ///< hit granted by the ideal-LLC mode (paper Fig. 2)
};

/** Who generated a prefetch (for accuracy accounting). */
enum class PrefetchOrigin : std::uint8_t
{
    None,
    DataPrefetcher, ///< SPP / Bingo / IPCP / ISB / stride
    Atp,            ///< the paper's translation-hit-triggered prefetcher
    Tempo,          ///< TEMPO DRAM-controller prefetch
};

constexpr std::size_t kNumPrefetchOrigins = 4;

class MemRequest;

/**
 * Owning handle to a pooled MemRequest, with shared_ptr's value
 * semantics: copies share the request, and the last handle to drop
 * destroys it and parks its node in the thread's pool
 * (mem/request_pool.hh). The count is a plain integer, not an atomic:
 * a request never leaves the thread of the System that made it.
 * Non-null handles come only from makeRequest(); default-constructed
 * and moved-from handles are null.
 */
class MemRequestPtr
{
  public:
    MemRequestPtr() noexcept = default;
    MemRequestPtr(std::nullptr_t) noexcept {}

    MemRequestPtr(const MemRequestPtr &o) noexcept;

    MemRequestPtr(MemRequestPtr &&o) noexcept
        : req_(std::exchange(o.req_, nullptr))
    {}

    /** Copy and move assignment in one; self-assignment of either
     *  kind leaves the count unchanged. */
    MemRequestPtr &
    operator=(MemRequestPtr o) noexcept
    {
        std::swap(req_, o.req_);
        return *this;
    }

    ~MemRequestPtr()
    {
        if (req_)
            release();
    }

    MemRequest *get() const noexcept { return req_; }
    MemRequest *operator->() const noexcept { return req_; }
    MemRequest &operator*() const noexcept { return *req_; }
    explicit operator bool() const noexcept { return req_ != nullptr; }

  private:
    friend MemRequestPtr makeRequest();

    /** Adopt a request that makeRequest() just constructed. */
    explicit MemRequestPtr(MemRequest *req) noexcept;

    void release() noexcept;

    MemRequest *req_ = nullptr;
};

/**
 * One memory transaction. Allocated by the requester (core, cache or
 * PTW) with makeRequest() and passed by MemRequestPtr, a counted
 * handle, so MSHR merging can hang several requesters off the same
 * in-flight line. Not copyable: the count belongs to the object.
 */
class MemRequest
{
  public:
    using Callback = std::function<void(MemRequest &)>;

    MemRequest() = default;
    MemRequest(const MemRequest &) = delete;
    MemRequest &operator=(const MemRequest &) = delete;

    Addr paddr = 0;      ///< physical byte address
    Addr vaddr = 0;      ///< originating virtual address (0 for PTW/WB)
    Addr ip = 0;         ///< instruction pointer of the triggering op
    ReqType type = ReqType::Load;

    /** Page-table level for Translation requests: 1 = leaf ... 5 = root,
     *  0 for data requests. In nested mode this is the level within the
     *  dimension (guest or host) that issued the read. */
    std::uint8_t ptLevel = 0;

    /** Translation request reading the *leaf* PTE — the read that ends
     *  the translation. With huge pages the leaf may sit at level 2 or 3,
     *  and in nested mode host reads are never the leaf, so this is a
     *  flag rather than a ptLevel comparison. */
    bool leafPte = false;

    /** Mapping granule of the data page (demand/prefetch requests). */
    PageSize pageSize = PageSize::Size4K;

    /** Demand data access whose translation missed the STLB. */
    bool isReplay = false;

    /** For leaf-level Translation requests: the block address of the data
     *  line the in-flight demand load will access once translation
     *  completes. Architecturally this is reconstructed from the PTE
     *  contents plus the upper six page-offset bits the PTW carries
     *  (paper §IV); the simulator just plumbs it through. */
    Addr replayBlockPaddr = 0;

    PrefetchOrigin prefetchOrigin = PrefetchOrigin::None;

    std::uint16_t cpu = 0; ///< issuing hardware context

    Cycle issuedAt = 0;
    Cycle completedAt = 0;
    RespSource source = RespSource::None;
    bool done = false;

    /** Invoked exactly once when the request's data is available. */
    Callback onComplete;

    /** Next request waiting on the same cache MSHR; null for the last.
     *  An MSHR's waiters form a FIFO threaded through these links, each
     *  owning its successor, so the list never allocates and a dropped
     *  list releases every waiter. The cache clears the link before it
     *  completes the request. */
    MemRequestPtr nextWaiter;

    /** True for PTW reads of the leaf page-table level. */
    bool isLeafTranslation() const
    {
        return type == ReqType::Translation && leafPte;
    }

    bool isTranslation() const { return type == ReqType::Translation; }

    bool isDemand() const
    {
        return type == ReqType::Load || type == ReqType::Store;
    }

    /** Block-aligned physical address. */
    Addr blockAddr() const { return blockAlign(paddr); }

    /** Mark complete and fire the callback. */
    void
    complete(Cycle when, RespSource src)
    {
        if (done)
            return;
        done = true;
        completedAt = when;
        source = src;
        if (onComplete)
            onComplete(*this);
    }

  private:
    friend class MemRequestPtr;

    /** Live MemRequestPtr handles to this request. */
    std::uint32_t refs_ = 0;
};

// MemRequestPtr's members that touch the count, now that MemRequest is
// complete.

inline MemRequestPtr::MemRequestPtr(const MemRequestPtr &o) noexcept
    : req_(o.req_)
{
    if (req_)
        ++req_->refs_;
}

inline MemRequestPtr::MemRequestPtr(MemRequest *req) noexcept : req_(req)
{
    ++req_->refs_;
}

inline void
MemRequestPtr::release() noexcept
{
    TACSIM_DCHECK(req_->refs_ > 0 && "MemRequestPtr count underflow");
    if (--req_->refs_ == 0) {
        req_->~MemRequest();
        pool_detail::Freelist<MemRequest>::deallocate(req_);
    }
}

/** Allocate a default-constructed MemRequest from the thread's pool. */
inline MemRequestPtr
makeRequest()
{
    return MemRequestPtr(
        ::new (pool_detail::Freelist<MemRequest>::allocate()) MemRequest());
}

/**
 * Anything that can accept a MemRequest: a cache level or the DRAM
 * controller. Devices call req->complete() (possibly much later) when the
 * data is available.
 */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /** Hand a request to this device. The device owns scheduling. */
    virtual void access(const MemRequestPtr &req) = 0;

    /** Device name for reports. */
    virtual const std::string &name() const = 0;
};

} // namespace tacsim

#endif // TACSIM_MEM_REQUEST_HH
