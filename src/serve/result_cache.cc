#include "serve/result_cache.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/json.hh"
#include "serve/point_key.hh"
#include "serve/result_codec.hh"
#include "trace/format.hh"

namespace tacsim {
namespace serve {

namespace {

constexpr const char *kEntryMagic = "tacsim-cache-v1";

void
makeDir(const std::string &path)
{
    // tacsim-lint: allow(magic-page-constant) mkdir permission bits, not a page mask
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error("result cache: cannot create directory " +
                                 path + ": " + std::strerror(errno));
}

void
warn(const std::string &message)
{
    std::fprintf(stderr, "tacsim-cache: warning: %s\n", message.c_str());
}

/** Write @p content to @p path atomically (temp file + rename). */
bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote =
        content.empty() ||
        std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string
crcHex(std::uint32_t crc)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

/** Serialize an entry to its self-verifying file form. */
std::string
encodeEntry(const CacheEntry &e)
{
    JsonObject o;
    o["schema"] = JsonValue(kEntryMagic);
    o["point_key"] = JsonValue(e.pointKey);
    o["run"] = parseJson(e.runRecord.empty() ? "null" : e.runRecord);
    o["result"] = runResultToJson(e.result);
    o["stats_dump"] = JsonValue(e.statsDump);
    const std::string payload = JsonValue(std::move(o)).dump();
    const std::uint32_t crc =
        trace::crc32(0, payload.data(), payload.size());
    return std::string(kEntryMagic) + " " + crcHex(crc) + " " +
        std::to_string(payload.size()) + "\n" + payload;
}

/** Parse and verify an entry file; false (with reason) on any defect. */
bool
decodeEntry(const std::string &bytes, CacheEntry &out, std::string &why)
{
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string::npos) {
        why = "missing header line";
        return false;
    }
    std::istringstream header(bytes.substr(0, nl));
    std::string magic, crcField;
    std::uint64_t payloadLen = 0;
    header >> magic >> crcField >> payloadLen;
    if (magic != kEntryMagic || header.fail()) {
        why = "bad header";
        return false;
    }
    const std::string payload = bytes.substr(nl + 1);
    if (payload.size() != payloadLen) {
        why = "truncated payload (header says " +
            std::to_string(payloadLen) + " bytes, file has " +
            std::to_string(payload.size()) + ")";
        return false;
    }
    const std::uint32_t crc =
        trace::crc32(0, payload.data(), payload.size());
    if (crcHex(crc) != crcField) {
        why = "CRC mismatch";
        return false;
    }
    try {
        const JsonValue v = parseJson(payload);
        if (v.at("schema").asString() != kEntryMagic) {
            why = "wrong schema";
            return false;
        }
        out.pointKey = v.at("point_key").asString();
        out.runRecord = v.at("run").dump();
        out.statsDump = v.at("stats_dump").asString();
        out.result = runResultFromJson(v.at("result"));
    } catch (const std::exception &e) {
        why = std::string("unparseable payload: ") + e.what();
        return false;
    }
    return true;
}

} // namespace

ResultCache::ResultCache(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes)
{
    makeDir(dir_);
    makeDir(dir_ + "/objects");
    std::lock_guard<std::mutex> lk(mutex_);
    loadIndexLocked();
}

std::string
ResultCache::objectPath(const std::string &pointKey) const
{
    return dir_ + "/objects/" + pointKey;
}

void
ResultCache::loadIndexLocked()
{
    index_.clear();
    totalBytes_ = 0;
    nextSeq_ = 1;

    std::string text;
    if (!readFile(dir_ + "/index.txt", text))
        return; // fresh cache

    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        IndexEntry e;
        ls >> key >> e.bytes >> e.seq;
        if (ls.fail() || !isPointKey(key)) {
            warn(dir_ + "/index.txt line " + std::to_string(lineNo) +
                 " is malformed; dropping it");
            continue;
        }
        index_[key] = e;
        totalBytes_ += e.bytes;
        nextSeq_ = std::max(nextSeq_, e.seq + 1);
    }
}

void
ResultCache::writeIndexLocked() const
{
    std::string out;
    out.reserve(index_.size() * 90);
    // tacsim-lint: allow(nondeterminism-hazard) index_ is a std::map — key-sorted, deterministic iteration
    for (const auto &[key, e] : index_)
        out += key + " " + std::to_string(e.bytes) + " " +
            std::to_string(e.seq) + "\n";
    if (!writeFileAtomic(dir_ + "/index.txt", out))
        warn("cannot write " + dir_ + "/index.txt");
}

void
ResultCache::dropEntryLocked(const std::string &pointKey, const char *why)
{
    auto it = index_.find(pointKey);
    if (it != index_.end()) {
        totalBytes_ -= it->second.bytes;
        index_.erase(it);
    }
    std::remove(objectPath(pointKey).c_str());
    warn("entry " + pointKey + " dropped: " + why);
}

bool
ResultCache::readEntryLocked(const std::string &pointKey,
                             CacheEntry &out) const
{
    std::string bytes;
    if (!readFile(objectPath(pointKey), bytes))
        return false;
    std::string why;
    if (!decodeEntry(bytes, out, why))
        return false;
    return out.pointKey == pointKey;
}

bool
ResultCache::lookup(const std::string &pointKey, CacheEntry &out)
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = index_.find(pointKey);
    if (it == index_.end())
        return false;

    std::string bytes;
    if (!readFile(objectPath(pointKey), bytes)) {
        // Stale index: the object vanished underneath us.
        ++corruptMisses_;
        dropEntryLocked(pointKey, "object file missing (stale index)");
        writeIndexLocked();
        return false;
    }
    std::string why;
    if (!decodeEntry(bytes, out, why) || out.pointKey != pointKey) {
        ++corruptMisses_;
        dropEntryLocked(pointKey,
                        why.empty() ? "point key mismatch" : why.c_str());
        writeIndexLocked();
        return false;
    }

    ++hits_;
    it->second.seq = nextSeq_++;
    writeIndexLocked();
    return true;
}

bool
ResultCache::contains(const std::string &pointKey) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return index_.count(pointKey) != 0;
}

void
ResultCache::store(const CacheEntry &entry)
{
    const std::string bytes = encodeEntry(entry);
    std::lock_guard<std::mutex> lk(mutex_);
    if (!writeFileAtomic(objectPath(entry.pointKey), bytes)) {
        warn("cannot write entry " + entry.pointKey + "; not cached");
        return;
    }
    auto it = index_.find(entry.pointKey);
    if (it != index_.end())
        totalBytes_ -= it->second.bytes;
    index_[entry.pointKey] =
        IndexEntry{bytes.size(), nextSeq_++};
    totalBytes_ += bytes.size();
    if (maxBytes_ != 0)
        evictOverLocked(maxBytes_);
    writeIndexLocked();
}

void
ResultCache::evictOverLocked(std::uint64_t cap)
{
    while (totalBytes_ > cap && !index_.empty()) {
        auto victim = index_.begin();
        for (auto it = index_.begin(); it != index_.end(); ++it)
            if (it->second.seq < victim->second.seq)
                victim = it;
        totalBytes_ -= victim->second.bytes;
        std::remove(objectPath(victim->first).c_str());
        index_.erase(victim);
        ++evictions_;
    }
}

std::vector<ResultCache::Info>
ResultCache::list() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<Info> out;
    out.reserve(index_.size());
    // tacsim-lint: allow(nondeterminism-hazard) index_ is a std::map — key-sorted, deterministic iteration
    for (const auto &[key, e] : index_)
        out.push_back(Info{key, e.bytes, e.seq});
    std::sort(out.begin(), out.end(),
              [](const Info &a, const Info &b) { return a.seq > b.seq; });
    return out;
}

std::uint64_t
ResultCache::totalBytes() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return totalBytes_;
}

std::size_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return index_.size();
}

std::size_t
ResultCache::gcToBytes(std::uint64_t targetBytes)
{
    std::lock_guard<std::mutex> lk(mutex_);
    const std::uint64_t before = evictions_;
    evictOverLocked(targetBytes);
    writeIndexLocked();
    return static_cast<std::size_t>(evictions_ - before);
}

std::size_t
ResultCache::verify()
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::size_t dropped = 0;

    // Pass 1: every indexed entry must decode and CRC-verify.
    std::vector<std::string> bad;
    // tacsim-lint: allow(nondeterminism-hazard) index_ is a std::map — key-sorted, deterministic iteration
    for (const auto &[key, e] : index_) {
        (void)e;
        CacheEntry tmp;
        if (!readEntryLocked(key, tmp))
            bad.push_back(key);
    }
    for (const std::string &key : bad) {
        dropEntryLocked(key.c_str(), "failed verification");
        ++dropped;
    }

    // Pass 2: adopt valid orphans the index forgot (crash between
    // object write and index write).
    if (DIR *d = ::opendir((dir_ + "/objects").c_str())) {
        while (const struct dirent *ent = ::readdir(d)) {
            const std::string name = ent->d_name;
            if (!isPointKey(name) || index_.count(name))
                continue;
            CacheEntry tmp;
            if (!readEntryLocked(name, tmp)) {
                std::remove(objectPath(name).c_str());
                warn("removing invalid orphan object " + name);
                continue;
            }
            struct ::stat st{};
            if (::stat(objectPath(name).c_str(), &st) != 0)
                continue;
            index_[name] = IndexEntry{
                static_cast<std::uint64_t>(st.st_size), nextSeq_++};
            totalBytes_ += static_cast<std::uint64_t>(st.st_size);
        }
        ::closedir(d);
    }

    if (maxBytes_ != 0)
        evictOverLocked(maxBytes_);
    writeIndexLocked();
    return dropped;
}

bool
ResultCacheSweepAdapter::lookup(const std::string &pointKey,
                                RunResult &out)
{
    CacheEntry e;
    if (!cache_.lookup(pointKey, e))
        return false;
    out = e.result;
    return true;
}

void
ResultCacheSweepAdapter::store(const std::string &pointKey,
                               const RunResult &result,
                               const std::string &statsDump)
{
    CacheEntry e;
    e.pointKey = pointKey;
    e.runRecord = makeRunRecord(pointKey, result);
    e.statsDump = statsDump;
    e.result = result;
    cache_.store(e);
}

std::string
makeRunRecord(const std::string &pointKey, const RunResult &result)
{
    JsonObject o;
    o["key"] = JsonValue(result.benchmark);
    o["point_key"] = JsonValue(pointKey);
    o["benchmark"] = JsonValue(result.benchmark);
    o["instructions"] = JsonValue(result.instructions);
    o["cycles"] = JsonValue(result.cycles);
    o["ipc"] = JsonValue(result.ipc);
    o["ok"] = JsonValue(true);
    return JsonValue(std::move(o)).dump();
}

} // namespace serve
} // namespace tacsim
