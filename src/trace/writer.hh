/**
 * @file
 * TraceWriter — streams TraceRecords into a `tacsim-trace-v1` file —
 * and RecordingWorkload, a decorator that tees any Workload's stream to
 * a writer so an ordinary simulation run doubles as trace capture.
 */

#ifndef TACSIM_TRACE_WRITER_HH
#define TACSIM_TRACE_WRITER_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "trace/format.hh"

namespace tacsim {
namespace trace {

/**
 * Buffered, CRC-accumulating writer. append() encodes into an in-memory
 * buffer flushed in large chunks; finalize() writes the footer and
 * rewrites the header with the record count (the destructor finalizes
 * too, but call finalize() explicitly to observe I/O errors — it
 * throws).
 */
class TraceWriter
{
  public:
    /** Opens @p path for writing and emits the header. @p header's
     *  recordCount is ignored (counted as records are appended). Throws
     *  std::runtime_error on I/O failure. */
    TraceWriter(const std::string &path, TraceHeader header);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Encode and buffer one record. */
    void
    append(const TraceRecord &r)
    {
        encodeRecord(buffer_, r, delta_);
        ++count_;
        if (buffer_.size() >= kFlushBytes)
            flush();
    }

    /** Flush, write the footer, rewrite the header, close. Safe to
     *  call once; throws std::runtime_error on I/O failure. */
    void finalize();

    /** Override the header's footprint at finalize time (the ChampSim
     *  importer derives it from the observed address span). */
    void setFootprint(Addr footprint) { header_.footprint = footprint; }

    std::uint64_t recordCount() const { return count_; }

  private:
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    void flush();

    std::string path_;
    TraceHeader header_; ///< rewritten by finalize()
    std::FILE *file_ = nullptr;
    std::vector<unsigned char> buffer_;
    DeltaState delta_;
    std::uint64_t count_ = 0;
    std::uint32_t crc_ = 0;
};

/**
 * Tee decorator: forwards next() to the wrapped workload and appends
 * every produced record to the shared writer. Wrapping is transparent —
 * the simulated system sees the identical stream — so the canonical
 * stats dump of a recording run matches the plain run byte for byte.
 */
class RecordingWorkload : public Workload
{
  public:
    RecordingWorkload(std::unique_ptr<Workload> inner,
                      std::shared_ptr<TraceWriter> writer)
        : inner_(std::move(inner)), writer_(std::move(writer))
    {}

    TraceRecord
    next() override
    {
        TraceRecord r = inner_->next();
        writer_->append(r);
        return r;
    }

    std::string name() const override { return inner_->name(); }
    Addr footprint() const override { return inner_->footprint(); }

    /** Header metadata describing @p w, for recording its stream. */
    static TraceHeader
    headerFor(const Workload &w, std::uint64_t seed)
    {
        TraceHeader h;
        h.name = w.name();
        h.footprint = w.footprint();
        h.seed = seed;
        return h;
    }

  private:
    std::unique_ptr<Workload> inner_;
    std::shared_ptr<TraceWriter> writer_;
};

} // namespace trace
} // namespace tacsim

#endif // TACSIM_TRACE_WRITER_HH
