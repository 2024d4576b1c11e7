/**
 * @file
 * Shared checkpoint helper for the synthetic workload generators.
 *
 * Every generator in this directory carries the same three kinds of
 * mutable state: an Rng, a handful of integer cursors, and a deque of
 * already-generated TraceRecords waiting to be handed to the core.
 * StateArchive covers the first two; this helper covers the queue, so
 * each workload's state() lists its Rng and cursors and then calls it.
 */

#ifndef TACSIM_WORKLOADS_CKPT_HH
#define TACSIM_WORKLOADS_CKPT_HH

#include <deque>

#include "common/serialize.hh"
#include "core/trace.hh"

namespace tacsim::workload_ckpt {

inline void
queueState(StateArchive &ar, std::deque<TraceRecord> &q)
{
    std::uint64_t n = q.size();
    ar.io(n);
    if (ar.loading())
        q.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        // A restore grows the queue one record at a time, so a corrupt
        // count runs out of bytes instead of sizing an allocation.
        TraceRecord &t = ar.loading() ? q.emplace_back() : q[i];
        ar.io(t.ip);
        ar.io(t.kind, TraceRecord::kNumKinds, "a queued record kind");
        ar.io(t.vaddr);
        ar.io(t.dependsOnPrevLoad);
    }
}

} // namespace tacsim::workload_ckpt

#endif // TACSIM_WORKLOADS_CKPT_HH
