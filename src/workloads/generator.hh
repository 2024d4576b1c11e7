/**
 * @file
 * Base of the synthetic workload generators (mcf, xalancbmk, canneal and
 * the graph kernels). Each generator's refill() appends one burst of
 * records — a pointer hop, a DOM visit, an annealing move, a vertex —
 * and next() hands them out in order, refilling when the burst is used
 * up.
 *
 * The records wait in one buffer of fixed-size chunks that the
 * generator keeps from one refill to the next: in steady state a record
 * costs no allocation, a large burst adds chunks instead of copying the
 * ones it has, and the buffer never holds more than the largest burst
 * rounded up to a chunk.
 */

#ifndef TACSIM_WORKLOADS_GENERATOR_HH
#define TACSIM_WORKLOADS_GENERATOR_HH

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/trace.hh"

namespace tacsim {

class Generator : public Workload
{
  public:
    TraceRecord
    next() final
    {
        if (read_ == size_) {
            read_ = size_ = 0;
            while (size_ == 0)
                refill();
        }
        const TraceRecord &t = (*chunks_[read_ / kChunk])[read_ % kChunk];
        ++read_;
        return t;
    }

  protected:
    /** Append the next burst of records with the emit helpers. */
    virtual void refill() = 0;

    void
    emitLoad(Addr ip, Addr va, bool dep = false)
    {
        emit(ip, TraceRecord::Kind::Load, va, dep);
    }

    void
    emitStore(Addr ip, Addr va, bool dep = false)
    {
        emit(ip, TraceRecord::Kind::Store, va, dep);
    }

    void
    emitNonMem(Addr ip, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            emit(ip, TraceRecord::Kind::NonMem, 0, false);
    }

  private:
    /** Records per chunk: 2 KiB, which holds a typical burst. */
    static constexpr std::size_t kChunk = 64;
    using Chunk = std::array<TraceRecord, kChunk>;

    void
    emit(Addr ip, TraceRecord::Kind kind, Addr va, bool dep)
    {
        if (size_ == chunks_.size() * kChunk)
            chunks_.push_back(std::make_unique<Chunk>());
        TraceRecord &t = (*chunks_[size_ / kChunk])[size_ % kChunk];
        t.ip = ip;
        t.kind = kind;
        t.vaddr = va;
        t.dependsOnPrevLoad = dep;
        ++size_;
    }

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t size_ = 0; ///< records of the current burst
    std::size_t read_ = 0; ///< records of it handed out
};

} // namespace tacsim

#endif // TACSIM_WORKLOADS_GENERATOR_HH
