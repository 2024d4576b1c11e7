/**
 * @file
 * Five-level radix page table (57-bit virtual addresses, 8B PTEs) with a
 * physical frame allocator. This is the simulated OS's view: tables are
 * built lazily on first touch and live at real (simulated) physical
 * addresses so that page-table-walker reads travel through the cache
 * hierarchy like any other access (paper §II-A).
 *
 * Mappings are not restricted to 4KB: a leaf PTE may sit at level 1
 * (4KB), level 2 (2MB) or level 3 (1GB). Which granule backs a virtual
 * region is decided on first touch, either by an explicit mapRegion()
 * override or by a deterministic THP-style policy that promotes a
 * configurable fraction of 2M/1G-aligned regions to huge pages.
 */

#ifndef TACSIM_VM_PAGE_TABLE_HH
#define TACSIM_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace tacsim {

/**
 * Hands out physical frames. Shared by all address spaces in a system so
 * frames never collide. Frames are assigned in first-touch order, which
 * is what a first-touch OS allocator produces; huge-page requests are
 * aligned up to their own size so a frame base ORed with a page offset
 * is always a valid physical address.
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(Addr base = kPageSize) : next_(base) {}

    /** Allocate one naturally-aligned frame of @p bytes (a power of
     *  two, default 4KB); returns its physical base address. */
    Addr
    alloc(Addr bytes = kPageSize)
    {
        TACSIM_DCHECK(bytes >= kPageSize && (bytes & (bytes - 1)) == 0);
        Addr f = (next_ + bytes - 1) & ~(bytes - 1);
        next_ = f + bytes;
        return f;
    }

    /** Total bytes of physical memory handed out. */
    Addr allocated() const { return next_; }

  private:
    Addr next_;
};

/**
 * THP-style huge-page policy: the fraction of 2M-aligned (and 1G-aligned)
 * virtual regions backed by a single huge page instead of a 4K subtree.
 * Decisions are a pure hash of (seed, region index), so the same policy
 * applied to the same touch order yields the same mapping — and fraction
 * 1.0 / 0.0 are exact, not probabilistic.
 */
struct HugePagePolicy
{
    double fraction2M = 0.0; ///< fraction of 2M regions mapped as 2M
    double fraction1G = 0.0; ///< fraction of 1G regions mapped as 1G
    std::uint64_t seed = 1;

    bool
    none() const
    {
        return fraction2M <= 0.0 && fraction1G <= 0.0;
    }

    /** Deterministic draw: does region @p index at @p ps get promoted? */
    bool
    promotes(Addr index, PageSize ps) const
    {
        const double f =
            ps == PageSize::Size1G ? fraction1G : fraction2M;
        if (f <= 0.0)
            return false;
        if (f >= 1.0)
            return true;
        const std::uint64_t h = hashCombine(
            hashMix(seed + static_cast<unsigned>(ps)), index);
        return static_cast<double>(h >> 11) * 0x1.0p-53 < f;
    }
};

/**
 * One address space's page table. walk() returns the PTE physical
 * address at every level read plus the final data physical address,
 * which is exactly what the page-table walker needs to generate its
 * accesses. A walk of a huge-page mapping terminates early: pteAddr[]
 * entries below the leaf level are unused (zero).
 */
class PageTable
{
  public:
    /** Result of walking one virtual address. */
    struct WalkResult
    {
        /** pteAddr[l-1] = physical address of the level-l PTE
         *  (l = leafLevel ... kPtLevels root; 0 below the leaf). */
        std::array<Addr, kPtLevels> pteAddr = {};
        /** tableFrame[l-1] = physical base of the level-l table page. */
        std::array<Addr, kPtLevels> tableFrame = {};
        Addr dataPaddr = 0;      ///< translated physical address
        unsigned leafLevel = 1;  ///< level of the leaf PTE (1/2/3)
        PageSize pageSize = PageSize::Size4K; ///< mapping granule
    };

    explicit PageTable(FrameAllocator &alloc, HugePagePolicy policy = {})
        : alloc_(&alloc),
          policy_(policy),
          root_(std::make_unique<Node>(alloc.alloc()))
    {}

    /**
     * Force [base, base + bytes) to map at granule @p ps (first-touch
     * builds honor it). Overrides beat the fractional policy; base and
     * bytes must be aligned to pageBytes(ps).
     */
    void
    mapRegion(Addr base, Addr bytes, PageSize ps)
    {
        TACSIM_CHECK(pageAlign(base, ps) == base &&
                     bytes % pageBytes(ps) == 0 &&
                     "mapRegion bounds must be page-size aligned");
        overrides_.push_back(Override{base, base + bytes, ps});
    }

    /**
     * Walk (and on first touch, build) the translation for @p vaddr.
     * Deterministic: the same touch order yields the same frames.
     */
    WalkResult
    walk(Addr vaddr)
    {
        const unsigned leafLevel = leafLevelFor(vaddr);
        const PageSize ps = pageSizeForLevel(leafLevel);
        WalkResult r;
        r.leafLevel = leafLevel;
        r.pageSize = ps;
        Node *node = root_.get();
        for (unsigned level = kPtLevels; level > leafLevel; --level) {
            const unsigned idx = ptIndex(vaddr, level);
            r.tableFrame[level - 1] = node->frame;
            r.pteAddr[level - 1] = node->frame + idx * kPteSize;
            TACSIM_DCHECK(node->leafPfn[idx] == 0 &&
                          "table descends through a huge-page leaf");
            if (!node->children[idx])
                node->children[idx] = std::make_unique<Node>(alloc_->alloc());
            node = node->children[idx].get();
        }
        const unsigned idx = ptIndex(vaddr, leafLevel);
        r.tableFrame[leafLevel - 1] = node->frame;
        r.pteAddr[leafLevel - 1] = node->frame + idx * kPteSize;
        TACSIM_DCHECK(!node->children[idx] &&
                      "huge-page leaf aliases an existing subtree");
        if (node->leafPfn[idx] == 0)
            node->leafPfn[idx] = alloc_->alloc(pageBytes(ps));
        r.dataPaddr = node->leafPfn[idx] | pageOffset(vaddr, ps);
        return r;
    }

    /** Translate without exposing walk internals. */
    Addr translate(Addr vaddr) { return walk(vaddr).dataPaddr; }

    /** Mapping granule that (would) back @p vaddr. */
    PageSize
    pageSizeOf(Addr vaddr) const
    {
        return pageSizeForLevel(leafLevelFor(vaddr));
    }

    /** Number of page-table pages built so far (all levels). */
    std::uint64_t tablePages() const { return countNodes(root_.get()); }

    /** Physical base of the root (CR3 analogue). */
    Addr rootFrame() const { return root_->frame; }

    const HugePagePolicy &policy() const { return policy_; }

  private:
    /** One table page: its children and leaf frames inline, so a
     *  page is one allocation and each level one dependent load. */
    struct Node
    {
        explicit Node(Addr f) : frame(f) {}

        Addr frame;
        std::array<std::unique_ptr<Node>, kPtEntries> children;
        /** Nonzero where this node holds leaves. */
        std::array<Addr, kPtEntries> leafPfn = {};
    };

    struct Override
    {
        Addr begin, end;
        PageSize ps;
    };

    /** Level of the leaf PTE backing @p vaddr (1 = 4K, 2 = 2M, 3 = 1G). */
    unsigned
    leafLevelFor(Addr vaddr) const
    {
        for (const Override &o : overrides_) {
            if (vaddr >= o.begin && vaddr < o.end)
                return leafLevelOf(o.ps);
        }
        if (policy_.none())
            return 1;
        if (policy_.promotes(pageNumber(vaddr, PageSize::Size1G),
                             PageSize::Size1G))
            return leafLevelOf(PageSize::Size1G);
        if (policy_.promotes(pageNumber(vaddr, PageSize::Size2M),
                             PageSize::Size2M))
            return leafLevelOf(PageSize::Size2M);
        return 1;
    }

    static std::uint64_t
    countNodes(const Node *n)
    {
        std::uint64_t c = 1;
        for (const auto &ch : n->children)
            if (ch)
                c += countNodes(ch.get());
        return c;
    }

    FrameAllocator *alloc_;
    HugePagePolicy policy_;
    std::vector<Override> overrides_;
    std::unique_ptr<Node> root_;
};

} // namespace tacsim

#endif // TACSIM_VM_PAGE_TABLE_HH
