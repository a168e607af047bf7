/**
 * @file
 * Disk persistence for archvald sessions — the warm state a daemon
 * restart would otherwise throw away.
 *
 * A session's expensive products (the enumerated state graph, the
 * tour corpus, and the replay warm cache's donor entries) are pure
 * functions of the design fingerprint, so they can be parked on disk
 * and picked up by a later daemon on the same `--session-dir`: the
 * first job on a matching fingerprint restores in one file read and
 * replays warm, instead of paying enumeration plus the bug-free
 * donor simulation again.
 *
 * One support::RecordFileReader/Writer file per fingerprint, named
 * by a hash of the fingerprint string. Validity rule (the same
 * posture as PpCore::Snapshot::serialize): the file header carries a
 * magic and format version, the first record carries the *full*
 * fingerprint string, and every record is CRC-guarded — a missing
 * file is a restore miss, a store of another format version is a
 * miss (a routine upgrade, not damage), a fingerprint mismatch (hash
 * collision, renamed file) is a miss, and anything else wrong
 * (foreign magic, truncation, flipped bit, a graph of another state
 * width, undecodable warm entry) is a restore *failure*. All of them
 * degrade to a cold build; none can crash the daemon or restore
 * wrong bytes. Outcomes are counted in the `service.session_restore_*`
 * / `service.session_saves` metrics.
 *
 * Generated vectors are deliberately not persisted: they regenerate
 * deterministically from model + graph + tours + vectorSeed (see
 * vecgen::VectorGenerator), which keeps the restored warm-cache keys
 * — full serialized trace content — exactly matching the traces a
 * restored session will replay.
 *
 * Saves are atomic (temp file + rename, see RecordFileWriter), so a
 * daemon killed mid-save leaves the previous store intact.
 */

#ifndef ARCHVAL_SERVICE_SESSION_STORE_HH
#define ARCHVAL_SERVICE_SESSION_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace archval::service
{

class Session;

class SessionStore
{
  public:
    /** @param dir Store directory; empty disables persistence (every
     *  call becomes a cheap no-op). The directory is created if
     *  missing; an uncreatable one disables the store.
     *  @param cap_bytes Total bytes the store's record files may
     *  occupy (0 = unlimited). After every save the least-recently
     *  used files (by mtime; loads touch their file) are evicted
     *  until the directory fits — the just-written file is never the
     *  victim, so a single oversize session still persists. An
     *  evicted fingerprint simply rebuilds cold on its next job. */
    explicit SessionStore(std::string dir, size_t cap_bytes = 0);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Serialize @p session's built products (graph, tours, warm
     * entries) into its record file, atomically replacing any
     * previous version. Skips the write when nothing changed since
     * the last save. Takes the session's build mutex.
     * @return false only on a real write failure.
     */
    bool save(Session &session);

    /**
     * Restore products into @p session from its record file. The
     * caller must hold the session's build mutex and the session
     * must be cold (nothing built). On any mismatch or damage the
     * session is left untouched. @return true on a full restore.
     */
    bool loadLocked(Session &session);

    /** @return the record file path for @p fingerprint. */
    std::string pathFor(const std::string &fingerprint) const;

    /** Restore/save outcome counters (mirrored into telemetry as
     *  `service.session_restore_hits|misses|failures` and
     *  `service.session_saves|save_failures`). */
    struct Stats
    {
        uint64_t saves = 0;
        uint64_t saveFailures = 0;
        uint64_t restoreHits = 0;
        uint64_t restoreMisses = 0;
        uint64_t restoreFailures = 0;
        uint64_t evictions = 0; ///< record files removed by the cap
    };
    Stats stats() const;

  private:
    /** Change stamp of a session's persistable state (build stages +
     *  warm-entry count); save() skips when it matches the stamp of
     *  the last save. Caller holds the session's build mutex. */
    static uint64_t stampLocked(const Session &session);

    /** Evict LRU record files until the directory fits capBytes_;
     *  @p keep (the file just written) is never evicted. */
    void enforceCap(const std::string &keep);

    std::string dir_; ///< empty when disabled
    size_t capBytes_ = 0; ///< 0 = unlimited
    std::mutex evictMutex_; ///< serializes directory scans

    std::atomic<uint64_t> saves_{0};
    std::atomic<uint64_t> saveFailures_{0};
    std::atomic<uint64_t> restoreHits_{0};
    std::atomic<uint64_t> restoreMisses_{0};
    std::atomic<uint64_t> restoreFailures_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace archval::service

#endif // ARCHVAL_SERVICE_SESSION_STORE_HH
