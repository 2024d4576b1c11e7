/**
 * @file
 * The thread-local node pool behind MemRequest allocation.
 *
 * Every miss in the hierarchy allocates a fresh child MemRequest and
 * frees it when the fill completes — at simulation rates that is
 * millions of allocations per second, all of one size. makeRequest()
 * (mem/request.hh) constructs each request in a node taken from this
 * freelist; when the request's last MemRequestPtr drops, the request is
 * destroyed and its node parked here for the next makeRequest() instead
 * of going back to the heap.
 *
 * Thread safety: the freelist is thread_local and MemRequestPtr's count
 * is a plain integer. Both are sound because a System and every request
 * it creates live on a single sweep-worker thread for the whole run.
 * Requests are never handed across threads.
 *
 * AddressSanitizer: a parked node is poisoned and unpoisoned when it is
 * handed out again, so reading a request after its last handle dropped
 * is reported as use-after-poison rather than returning a stale value.
 *
 * Determinism: pooling only changes *where* requests live, never any
 * value the simulation reads — no simulated behavior depends on pointer
 * values. The golden-run suite pins this.
 */

#ifndef TACSIM_MEM_REQUEST_POOL_HH
#define TACSIM_MEM_REQUEST_POOL_HH

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace tacsim {
namespace pool_detail {

/** Thread-local freelist of raw nodes sized and aligned for @p T.
 *  Parked nodes are returned to the heap when their thread exits, so
 *  the pool holds no memory past any thread's lifetime. */
template <typename T>
class Freelist
{
  public:
    /** Uninitialised storage for one T: a parked node, or a new one. */
    static void *
    allocate()
    {
        Freelist &fl = instance();
        if (Node *node = fl.head_) {
            unpoison(node);
            fl.head_ = node->next;
            return node;
        }
        return ::operator new(sizeof(Node));
    }

    /** Park @p p, whose T has already been destroyed. */
    static void
    deallocate(void *p) noexcept
    {
        Freelist &fl = instance();
        auto *node = static_cast<Node *>(p);
        node->next = fl.head_;
        fl.head_ = node;
        poison(node);
    }

  private:
    union Node
    {
        Node *next;
        alignas(T) unsigned char storage[sizeof(T)];
    };

    Freelist() = default;

    ~Freelist()
    {
        while (Node *node = head_) {
            unpoison(node);
            head_ = node->next;
            ::operator delete(node);
        }
    }

    static Freelist &
    instance()
    {
        static thread_local Freelist fl;
        return fl;
    }

    static void
    poison([[maybe_unused]] Node *node)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(node, sizeof(Node));
#endif
    }

    static void
    unpoison([[maybe_unused]] Node *node)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(node, sizeof(Node));
#endif
    }

    Node *head_ = nullptr;
};

} // namespace pool_detail
} // namespace tacsim

#endif // TACSIM_MEM_REQUEST_POOL_HH
