#include "trace/writer.hh"

#include <stdexcept>
#include <utility>

#include "common/serialize.hh"

namespace tacsim {
namespace trace {

TraceWriter::TraceWriter(const std::string &path, TraceHeader header)
    : path_(path), header_(std::move(header))
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw std::runtime_error("trace: cannot open for writing: " +
                                 path);
    header_.recordCount = 0; // set by finalize()
    const std::string hdr = encodeHeader(header_);
    if (std::fwrite(hdr.data(), 1, hdr.size(), file_) != hdr.size()) {
        std::fclose(file_);
        file_ = nullptr;
        throw std::runtime_error("trace: header write failed: " + path);
    }
    buffer_.reserve(kFlushBytes + 32);
}

TraceWriter::~TraceWriter()
{
    if (file_) {
        try {
            finalize();
        } catch (...) {
            // Destructor cleanup: the file is already broken; swallow.
            if (file_) {
                std::fclose(file_);
                file_ = nullptr;
            }
        }
    }
}

void
TraceWriter::flush()
{
    if (buffer_.empty())
        return;
    crc_ = crc32(crc_, buffer_.data(), buffer_.size());
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size())
        throw std::runtime_error("trace: payload write failed: " + path_);
    buffer_.clear();
}

void
TraceWriter::finalize()
{
    if (!file_)
        return;
    flush();

    const std::string foot = encodeFooter(count_, crc_);
    bool ok =
        std::fwrite(foot.data(), 1, foot.size(), file_) == foot.size();

    // Rewrite the header with the record count, now that the stream
    // length is known (readers rely on it to find the payload end), and
    // any footprint setFootprint() gave. Only those fields change.
    header_.recordCount = count_;
    const std::string hdr = encodeHeader(header_);
    ok = ok && std::fseek(file_, 0, SEEK_SET) == 0 &&
        std::fwrite(hdr.data(), 1, hdr.size(), file_) == hdr.size();

    ok = std::fclose(file_) == 0 && ok;
    file_ = nullptr;
    if (!ok)
        throw std::runtime_error("trace: finalize failed: " + path_);
}

} // namespace trace
} // namespace tacsim
