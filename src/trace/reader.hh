/**
 * @file
 * TraceReader — buffered decoder for `tacsim-trace-v1` files — and
 * TraceFileWorkload, which replays a recorded trace through the
 * Workload interface, looping at EOF so the endless-stream contract the
 * core model relies on is preserved.
 */

#ifndef TACSIM_TRACE_READER_HH
#define TACSIM_TRACE_READER_HH

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "trace/format.hh"

namespace tacsim {
namespace trace {

/**
 * Sequential record decoder. Validates magic/version/header shape on
 * construction, plus that the file is long enough to hold its
 * fixed-size footer (throws std::runtime_error on malformed or
 * truncated files); payload integrity (CRC, counts, footer contents)
 * is checked by verifyTraceFile(), which decodes the whole file.
 * Decoding never reads past the footer boundary, so a truncated
 * payload reports the truncation instead of misdecoding footer bytes
 * as records. A reader made with @p checksum folds every payload byte
 * it reads into a running CRC; a replay makes none.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path, bool checksum = false);

    const TraceHeader &header() const { return header_; }
    const std::string &path() const { return path_; }
    std::uint64_t
    payloadBytes() const
    {
        return static_cast<std::uint64_t>(payloadEnd_ - payloadStart_);
    }
    std::uint64_t
    fileBytes() const
    {
        return static_cast<std::uint64_t>(payloadEnd_) + kFooterBytes;
    }

    /** CRC-32 of the payload bytes read since construction / the last
     *  rewind(); readFooter() extends it to the whole payload. Stays 0
     *  unless the reader was made with checksum. */
    std::uint32_t payloadCrc() const { return crc_; }

    /**
     * Decode the next record into @p r; false once recordCount records
     * have been read. Throws std::runtime_error on a truncated or
     * corrupt payload.
     */
    bool next(TraceRecord &r);

    /** Seek back to the payload start and reset the delta chains and
     *  the CRC. */
    void rewind();

    /** Read the payload bytes not yet read into payloadCrc(), then
     *  return the footer's bytes (empty if they cannot be read). The
     *  reader is then past the payload: rewind() before next(). */
    std::string readFooter();

  private:
    struct Closer { void operator()(std::FILE *f) const { std::fclose(f); } };

    unsigned char takeByte();
    std::uint64_t takeVarint();
    bool refill();

    std::string path_;
    std::unique_ptr<std::FILE, Closer> file_;
    TraceHeader header_;
    long payloadStart_ = 0;
    long payloadEnd_ = 0; ///< first footer byte; decode stops here

    std::vector<unsigned char> buffer_;
    std::size_t bufPos_ = 0;
    DeltaState delta_;
    std::uint64_t position_ = 0;
    bool checksum_;
    std::uint32_t crc_ = 0;
};

/** Outcome of a full-file integrity check. */
struct VerifyResult
{
    bool ok = false;
    std::string error;     ///< first problem found, empty when ok
    TraceHeader header;    ///< valid whenever the header parsed
    std::uint64_t payloadBytes = 0;
};

/**
 * Decode every record, then check the footer: end magic present, both
 * record counts consistent, payload CRC matches. One pass over one open
 * file: the reader's running CRC covers the decoded bytes and any left
 * before the footer. Never throws — parse errors come back as !ok.
 */
VerifyResult verifyTraceFile(const std::string &path);

/**
 * Replay a recorded trace as an endless instruction stream. Each
 * instance owns an independent reader, so multiple threads of a System
 * may replay the same file. At EOF the reader rewinds to the payload
 * start — short traces repeat, which mirrors how the synthetic
 * generators produce unbounded streams from bounded state.
 */
class TraceFileWorkload : public Workload
{
  public:
    explicit TraceFileWorkload(const std::string &path) : reader_(path)
    {
        if (reader_.header().recordCount == 0)
            throw std::runtime_error("trace: empty trace: " + path);
    }

    TraceRecord
    next() override
    {
        TraceRecord r;
        if (!reader_.next(r)) {
            reader_.rewind();
            reader_.next(r);
        }
        return r;
    }

    std::string name() const override { return reader_.header().name; }
    Addr footprint() const override { return reader_.header().footprint; }

    const TraceHeader &header() const { return reader_.header(); }

  private:
    TraceReader reader_;
};

} // namespace trace
} // namespace tacsim

#endif // TACSIM_TRACE_READER_HH
