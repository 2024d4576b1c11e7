/**
 * @file
 * Global simulation event queue.
 *
 * All timed components (caches, DRAM, the page-table walker, the core)
 * share one EventQueue. Components schedule completion callbacks rather
 * than polling, which keeps the simulator fast even when the ROB is
 * stalled for hundreds of cycles.
 *
 * The queue is the hottest structure in the simulator, so it avoids the
 * classic priority_queue-of-std::function design entirely:
 *
 *  - Event records are slab-allocated and recycled through an intrusive
 *    freelist — steady-state scheduling performs no heap allocation.
 *  - Callables are stored inline in the record; scheduleAt refuses at
 *    compile time one larger than kInlineBytes or without a nothrow
 *    move (every scheduling site in the simulator fits).
 *  - A calendar front-end covers the next kWindow cycles with one FIFO
 *    bucket per cycle and a bitmap for O(1)-ish next-event scans;
 *    events beyond the window wait in a small binary heap and migrate
 *    into buckets as the window advances.
 */

#ifndef TACSIM_COMMON_EVENT_QUEUE_HH
#define TACSIM_COMMON_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace tacsim {

/**
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same cycle fire in insertion order (a
 * monotonically increasing sequence number breaks ties), which keeps runs
 * bit-reproducible across platforms. The calendar/heap split preserves
 * that order exactly: bucket FIFOs receive events in seq order, and the
 * overflow heap orders by (when, seq) before migrating.
 */
class EventQueue
{
    /// Calendar window: one bucket per cycle for the next kWindow cycles.
    static constexpr unsigned kWindowBits = 10;
    static constexpr Cycle kWindow = Cycle{1} << kWindowBits;
    static constexpr std::size_t kBucketMask = kWindow - 1;
    static constexpr std::size_t kWords = kWindow / 64;
    /// Inline callable storage per event record; every scheduling site
    /// in src/ fits (largest capture today is ~40 bytes in the walker).
    static constexpr std::size_t kInlineBytes = 48;
    static constexpr std::size_t kSlabRecords = 512;

  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { destroyPending(); }

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Schedule @p f to run @p delay cycles from now. */
    template <typename F>
    void
    schedule(Cycle delay, F &&f)
    {
        scheduleAt(now_ + delay, std::forward<F>(f));
    }

    /**
     * Schedule @p f at absolute cycle @p when. Scheduling in the past is
     * always a component bug (a latency subtraction gone negative, a
     * stale completion time) — verify/debug builds abort on it; release
     * builds clamp to now() as a safety net.
     */
    template <typename F>
    void
    scheduleAt(Cycle when, F &&f)
    {
        using Fn = std::decay_t<F>;
        // The invoke trampoline moves the callable to the stack before
        // recycling the record, so the move must not throw.
        static_assert(sizeof(Fn) <= kInlineBytes &&
                          alignof(Fn) <= alignof(std::max_align_t) &&
                          std::is_nothrow_move_constructible_v<Fn>,
                      "an event callable must fit in kInlineBytes of "
                      "inline storage and move without throwing");
        TACSIM_DCHECK(when >= now_ &&
                      "scheduleAt in the past — component bug");
        if (when < now_)
            when = now_;

        Record *r = allocRecord();
        r->when = when;
        r->seq = seq_++;
        r->next = nullptr;
        ::new (static_cast<void *>(r->storage)) Fn(std::forward<F>(f));
        r->op = &opFor<Fn>;

        ++size_;
        if (when < windowEnd_)
            appendBucket(r);
        else
            heap_.push(r);
    }

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Cycle of the earliest pending event; now() if empty. */
    Cycle
    nextEventCycle() const
    {
        return size_ == 0 ? now_ : nextPendingCycle();
    }

    /** Total events executed since construction / reset(). The invariant
     *  Checker paces its periodic hierarchy walks on this count. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Advance time to cycle @p target, running every event scheduled at or
     * before it. Events may schedule further events; those are run too if
     * they fall within the window.
     */
    void
    advanceTo(Cycle target)
    {
        while (size_ > 0) {
            const Cycle c = nextPendingCycle();
            if (c > target)
                break;
            now_ = c;
            advanceWindow();
            runCycle(c);
        }
        if (target > now_)
            now_ = target;
    }

    /** Drop all pending events and reset time to zero. Slabs are kept
     *  for reuse. */
    void
    reset()
    {
        destroyPending();
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
        windowEnd_ = kWindow;
        nextValid_ = false;
    }

  private:
    enum class Op : std::uint8_t { Invoke, Destroy };

    struct Record
    {
        Cycle when;
        std::uint64_t seq;
        Record *next; ///< bucket FIFO link / freelist link
        void (*op)(Record &, EventQueue &, Op);
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    struct Bucket
    {
        Record *head = nullptr;
        Record *tail = nullptr;
    };

    struct HeapCmp
    {
        bool
        operator()(const Record *a, const Record *b) const
        {
            return a->when != b->when ? a->when > b->when
                                      : a->seq > b->seq;
        }
    };

    /**
     * Type-erased record operation. Invoke moves the callable out and
     * recycles the record *before* calling it, so the callback can
     * freely schedule new events (possibly reusing this very record).
     */
    template <typename Fn>
    static void
    opFor(Record &r, EventQueue &q, Op op)
    {
        Fn *f = std::launder(reinterpret_cast<Fn *>(r.storage));
        if (op == Op::Invoke) {
            Fn fn(std::move(*f));
            f->~Fn();
            q.recycle(&r);
            fn();
        } else {
            f->~Fn();
            q.recycle(&r);
        }
    }

    static constexpr std::size_t
    bucketOf(Cycle when)
    {
        return static_cast<std::size_t>(when) & kBucketMask;
    }

    Record *
    allocRecord()
    {
        if (!free_) {
            slabs_.push_back(std::make_unique<Record[]>(kSlabRecords));
            Record *slab = slabs_.back().get();
            for (std::size_t i = 0; i < kSlabRecords; ++i) {
                slab[i].next = free_;
                free_ = &slab[i];
            }
        }
        Record *r = free_;
        free_ = r->next;
        return r;
    }

    void
    recycle(Record *r)
    {
        r->next = free_;
        free_ = r;
    }

    void
    setBit(std::size_t bucket)
    {
        occupied_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    }

    void
    clearBit(std::size_t bucket)
    {
        occupied_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
    }

    void
    appendBucket(Record *r)
    {
        Bucket &b = buckets_[bucketOf(r->when)];
        if (b.tail)
            b.tail->next = r;
        else
            b.head = r;
        b.tail = r;
        setBit(bucketOf(r->when));
        if (nextValid_ && r->when < nextCycle_)
            nextCycle_ = r->when;
    }

    /** Keep windowEnd_ = now_ + kWindow and pull newly covered heap
     *  events into their buckets. Heap pops come out in (when, seq)
     *  order, and direct inserts into a bucket can only happen after
     *  its cycle entered the window, so per-bucket seq order holds. */
    void
    advanceWindow()
    {
        if (windowEnd_ >= now_ + kWindow)
            return;
        windowEnd_ = now_ + kWindow;
        while (!heap_.empty() && heap_.top()->when < windowEnd_) {
            Record *r = heap_.top();
            heap_.pop();
            r->next = nullptr;
            appendBucket(r);
        }
    }

    /** Earliest pending cycle; requires size_ > 0. */
    Cycle
    nextPendingCycle() const
    {
        if (nextValid_)
            return nextCycle_;

        // Scan the occupancy bitmap in ring order starting at now_'s
        // bucket: first the start word's upper bits, then the following
        // words, finally the start word's lower bits (wrapped cycles).
        const std::size_t start = bucketOf(now_);
        const std::size_t startWord = start >> 6;
        const std::uint64_t upper = ~std::uint64_t{0} << (start & 63);
        std::size_t word = startWord;
        std::uint64_t bits = occupied_[word] & upper;
        for (std::size_t i = 0;;) {
            if (bits) {
                const std::size_t bucket = (word << 6) |
                    static_cast<std::size_t>(std::countr_zero(bits));
                nextCycle_ = now_ +
                    static_cast<Cycle>((bucket - start) & kBucketMask);
                nextValid_ = true;
                return nextCycle_;
            }
            if (++i > kWords)
                break;
            word = (startWord + i) & (kWords - 1);
            bits = occupied_[word];
            if (i == kWords)
                bits &= ~upper;
        }
        // Buckets empty: the earliest event waits in the heap.
        nextCycle_ = heap_.top()->when;
        nextValid_ = true;
        return nextCycle_;
    }

    /** Run every event for cycle @p c (including ones its callbacks
     *  append for the same cycle). */
    void
    runCycle(Cycle c)
    {
        Bucket &b = buckets_[bucketOf(c)];
        while (Record *r = b.head) {
            b.head = r->next;
            if (!b.head)
                b.tail = nullptr;
            --size_;
            ++executed_;
            r->op(*r, *this, Op::Invoke);
        }
        clearBit(bucketOf(c));
        nextValid_ = false;
    }

    void
    destroyPending()
    {
        for (Bucket &b : buckets_) {
            Record *r = b.head;
            while (r) {
                Record *n = r->next;
                r->op(*r, *this, Op::Destroy);
                r = n;
            }
            b.head = b.tail = nullptr;
        }
        occupied_.fill(0);
        while (!heap_.empty()) {
            Record *r = heap_.top();
            heap_.pop();
            r->op(*r, *this, Op::Destroy);
        }
        size_ = 0;
        nextValid_ = false;
    }

    std::array<Bucket, kWindow> buckets_{};
    std::array<std::uint64_t, kWords> occupied_{};
    std::priority_queue<Record *, std::vector<Record *>, HeapCmp> heap_;
    std::vector<std::unique_ptr<Record[]>> slabs_;
    Record *free_ = nullptr;

    Cycle now_ = 0;
    Cycle windowEnd_ = kWindow;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;

    mutable Cycle nextCycle_ = 0;   ///< memoized earliest pending cycle
    mutable bool nextValid_ = false;
};

} // namespace tacsim

#endif // TACSIM_COMMON_EVENT_QUEUE_HH
