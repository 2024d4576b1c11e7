/**
 * @file
 * Persistent content-addressed simulation-result cache (tacsim-cache-v1).
 *
 * Layout under the cache root:
 *
 *   index.txt          one line per entry: "<key> <bytes> <seq>"
 *   objects/<key>      one entry file per cached point
 *
 * where <key> is a serve::pointKey (64 hex chars — everything that
 * determines the simulation's outcome: canonical config text, workload
 * content, budgets) and <seq> is a persisted logical access counter
 * giving LRU order across processes that reopen the store.
 *
 * Entry files are self-verifying:
 *
 *   line 1   "tacsim-cache-v1 <crc32-hex> <payload-bytes>\n"
 *   payload  a JSON object: {"schema", "point_key", "run" (the
 *            tacsim-sweep-v1-style run record), "result" (exact
 *            RunResult codec), "stats_dump" (canonical dumpRunResult
 *            text, returned byte-identically on a hit)}
 *
 * The CRC (trace::crc32, the same IEEE polynomial the trace and
 * checkpoint containers use) covers the payload, so truncation and bit
 * rot turn into clean misses. *Every* corruption mode — truncated
 * entry, CRC mismatch, unparseable payload, a key the index lists but
 * whose object file is gone — degrades to a miss plus a stderr
 * warning; the cache never returns a wrong result and never throws on
 * a corrupt store.
 *
 * Writes are atomic (temp file + rename) and the index rewrites
 * atomically after every mutation, so a killed process leaves at worst
 * an orphaned object that `tacsim-cache verify` re-adopts.
 *
 * All public methods are thread-safe (one internal mutex — entries are
 * small and hits are file reads, so contention is not a concern at
 * sweep scale).
 */

#ifndef TACSIM_SERVE_RESULT_CACHE_HH
#define TACSIM_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace tacsim {
namespace serve {

/** One cached result, as stored and as returned by lookup(). */
struct CacheEntry
{
    std::string pointKey;
    /** tacsim-sweep-v1-style run record (JSON object text). */
    std::string runRecord;
    /** Canonical stats dump (dumpRunResult) — byte-identical replay. */
    std::string statsDump;
    RunResult result;
};

class ResultCache
{
  public:
    /**
     * Open (creating directories and an empty index as needed) the
     * cache rooted at @p dir. @p maxBytes caps the total payload size —
     * exceeding it evicts least-recently-used entries; 0 means
     * unbounded. Throws std::runtime_error when the root cannot be
     * created; a corrupt index is adopted best-effort (bad lines are
     * dropped with a warning).
     */
    explicit ResultCache(std::string dir, std::uint64_t maxBytes = 0);

    /** True + filled @p out on a verified hit; false (never a throw) on
     *  absent, truncated, CRC-mismatched, or unparseable entries. */
    bool lookup(const std::string &pointKey, CacheEntry &out);

    /** True when @p pointKey is present without reading or verifying
     *  the entry (no LRU touch). */
    bool contains(const std::string &pointKey) const;

    /** Insert or overwrite an entry, then enforce the size cap. */
    void store(const CacheEntry &entry);

    /** Index metadata for the CLI, most recently used first. */
    struct Info
    {
        std::string pointKey;
        std::uint64_t bytes = 0;
        std::uint64_t seq = 0;
    };
    std::vector<Info> list() const;

    std::uint64_t totalBytes() const;
    std::size_t entries() const;
    const std::string &dir() const { return dir_; }

    /** Evict least-recently-used entries until the payload total is at
     *  most @p targetBytes; returns the number evicted. */
    std::size_t gcToBytes(std::uint64_t targetBytes);

    /**
     * Re-verify every entry on disk: CRC-check each object named by the
     * index, drop entries whose files are missing or corrupt, and adopt
     * valid orphaned objects the index forgot (e.g. after a crash
     * between object write and index write). Returns the number of
     * bad entries dropped.
     */
    std::size_t verify();

    // Monotonic counters since this instance opened the store.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t corruptMisses() const { return corruptMisses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct IndexEntry
    {
        std::uint64_t bytes = 0;
        std::uint64_t seq = 0;
    };

    std::string objectPath(const std::string &pointKey) const;
    void loadIndexLocked();
    void writeIndexLocked() const;
    void evictOverLocked(std::uint64_t cap);
    void dropEntryLocked(const std::string &pointKey, const char *why);
    bool readEntryLocked(const std::string &pointKey,
                         CacheEntry &out) const;

    std::string dir_;
    std::uint64_t maxBytes_;
    mutable std::mutex mutex_;
    std::map<std::string, IndexEntry> index_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t hits_ = 0, corruptMisses_ = 0, evictions_ = 0;
};

/**
 * SweepCache adapter: plug a ResultCache into SweepRunner::attachCache
 * so sweeps skip points the store already holds. store() synthesizes
 * the run record from the RunResult; lookup() decodes the exact codec
 * payload.
 */
class ResultCacheSweepAdapter : public SweepCache
{
  public:
    explicit ResultCacheSweepAdapter(ResultCache &cache) : cache_(cache)
    {}

    bool lookup(const std::string &pointKey, RunResult &out) override;
    void store(const std::string &pointKey, const RunResult &result,
               const std::string &statsDump) override;

  private:
    ResultCache &cache_;
};

/** Build the tacsim-sweep-v1-style run record stored with an entry. */
std::string makeRunRecord(const std::string &pointKey,
                          const RunResult &result);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_RESULT_CACHE_HH
