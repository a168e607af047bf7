/**
 * @file
 * Cross-request state for the archvald daemon: sessions keyed by
 * design/configuration fingerprint.
 *
 * The expensive products of the validation flow — the enumerated
 * state graph, the tour corpus, the generated vectors and the replay
 * engine's warm rows — depend only on the design configuration and
 * the generation parameters, never on which client asked. A Session
 * owns one such product chain; the SessionCache maps a DesignSpec
 * fingerprint to its Session so a repeat request (any client, any
 * connection) reuses everything the first request built: repeat
 * replays skip enumeration, tour generation, vector generation
 * *and* — through the shared harness::WarmRows, one per vector —
 * the bug-free donor simulation itself.
 *
 * Validity rule: the fingerprint string is the cache key and is a
 * pure function of every field of DesignSpec that influences any
 * cached product (config fields, enumeration limit, tour and vector
 * parameters). Two requests share a session iff their fingerprints
 * are equal; a request that changes *any* generation-relevant knob
 * gets a fresh session. Nothing is ever patched in place.
 *
 * Sessions build lazily and stage-by-stage under a per-session
 * mutex: concurrent jobs on the same fingerprint serialize their
 * build (the second waits, then finds the stage done), while jobs on
 * different fingerprints proceed independently. A build abandoned by
 * cancellation or error leaves earlier stages intact — the next
 * request resumes from the last completed stage.
 */

#ifndef ARCHVAL_SERVICE_SESSION_CACHE_HH
#define ARCHVAL_SERVICE_SESSION_CACHE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "harness/replay_engine.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "service/session_store.hh"
#include "support/json.hh"
#include "support/status.hh"
#include "vecgen/vector_gen.hh"

namespace archval::service
{

/** Most worker threads one request may ask for (the job's
 *  `threads`); a larger count is a bad request. */
constexpr unsigned kMaxRequestThreads = 256;

/**
 * Everything that identifies a cached session. Fields mirror the
 * `design` object of a job request; defaults are the small-preset
 * service shape.
 */
struct DesignSpec
{
    std::string preset = "small"; ///< "small" | "full"
    /** Config overrides; 0 / -1 keep the preset value. */
    unsigned lineWords = 0;
    int modelBranches = -1; ///< tri-state: -1 preset, 0 off, 1 on
    int dualIssue = -1;

    /** Enumeration guard (murphi::EnumOptions::maxStates). */
    uint64_t maxStates = 500'000;

    /** Out-of-core enumeration knobs (murphi::EnumOptions). Both
     *  are excluded from the fingerprint: the graph is
     *  byte-identical for every budget, so neither the residency
     *  budget nor the spill directory can change any cached
     *  product. */
    uint64_t memoryBudgetBytes = 0; ///< 0 = fully in-memory
    std::string spillDir;           ///< spill root ("" = $TMPDIR)

    /** Tour generation (graph::TourOptions). */
    uint64_t maxInstructionsPerTrace = 0;

    /** Vector generation seed. */
    uint64_t vectorSeed = 1;

    /**
     * Canonical key: every generation-relevant field rendered as
     * `name=value`, space-separated, fixed order. Equal fingerprints
     * iff equal specs — the SessionCache validity rule.
     */
    std::string fingerprint() const;

    /** @return the RTL configuration. @throws FatalError on an
     *  unknown preset — a client error, never a process exit. */
    rtl::PpConfig toConfig() const;

    /**
     * Parse the `design` object of a request. Absent fields keep
     * their defaults; a present field of the wrong type is an error
     * (answered as a `bad request` frame), never a silent default —
     * a client sending `"maxStates": 500000.0` must not land on a
     * different fingerprint than the 500000 it meant. So is a value
     * the design cannot take: `lineWords` above
     * rtl::PpConfig::maxLineWords (0 keeps the preset's).
     */
    static Result<DesignSpec> fromJson(const json::Value &design);
};

/**
 * One cached design session: the product chain plus the shared
 * replay warm rows. Thread-safe; see file comment for the build
 * discipline.
 */
class Session
{
  public:
    /** Build stages, each implying the ones before it. */
    enum class Stage
    {
        Graph,   ///< model + enumerated state graph
        Tours,   ///< + covering transition tours
        Vectors, ///< + generated test vectors
    };

    explicit Session(const DesignSpec &spec);

    /**
     * Ensure the chain is built through @p stage. Serializes with
     * other builders of this session; returns an empty string on
     * success or the failure/cancellation message. @p cancel (may be
     * null) aborts the enumeration stage cooperatively.
     */
    std::string ensure(Stage stage, const std::atomic<bool> *cancel);

    /** @name Products (valid after a successful ensure()). @{ */
    const rtl::PpConfig &config() const { return config_; }
    const rtl::PpFsmModel &model() const { return *model_; }
    const graph::StateGraph &graph() const { return *graph_; }
    const graph::Tours &tours() const { return *tours_; }
    const std::vector<vecgen::TestTrace> &vectors() const
    {
        return *vectors_;
    }
    const murphi::EnumStats &enumStats() const { return enumStats_; }
    const graph::TourStats &tourStats() const { return tourStats_; }
    /** @} */

    /** The session's replay warm rows, one per vector (shared by
     *  every replay/bughunt job on this session; valid after
     *  ensure(Stage::Vectors)). A session builds its vectors once and
     *  never patches them, so a vector's index names its row. */
    const std::shared_ptr<harness::WarmRows> &warmRows() const
    {
        return warm_;
    }

    const DesignSpec &spec() const { return spec_; }
    const std::string &fingerprint() const { return fingerprint_; }

    /** Attach the persistent store (done once by SessionCache right
     *  after construction, before the session is shared). The first
     *  ensure() then attempts a restore before building anything. */
    void setStore(SessionStore *store) { store_ = store; }

    /** Persist built products through the attached store (no-op
     *  without one, or when nothing changed since the last save).
     *  Called by the JobManager after each completed job. */
    void persist();

  private:
    friend class SessionStore; ///< serializes the guarded products

    DesignSpec spec_;
    std::string fingerprint_;
    rtl::PpConfig config_;
    std::shared_ptr<harness::WarmRows> warm_;
    SessionStore *store_ = nullptr; ///< null = memory-only session

    std::mutex buildMutex_; ///< serializes stage building
    bool restoreTried_ = false; ///< disk restore attempted (once)
    uint64_t savedStamp_ = 0;   ///< stampLocked() at the last save
    std::unique_ptr<rtl::PpFsmModel> model_;
    std::optional<graph::StateGraph> graph_;
    std::optional<graph::Tours> tours_;
    std::optional<std::vector<vecgen::TestTrace>> vectors_;
    murphi::EnumStats enumStats_;
    graph::TourStats tourStats_;
};

/**
 * Fingerprint-keyed session store with LRU eviction. acquire()
 * returns a shared handle, so an evicted session stays alive for
 * jobs still running on it — eviction only stops *new* requests from
 * finding it.
 */
class SessionCache
{
  public:
    /** @param max_sessions LRU capacity.
     *  @param session_dir Persistence directory (see SessionStore);
     *  empty keeps sessions memory-only.
     *  @param session_dir_cap_bytes On-disk size cap for the store's
     *  record files (0 = unlimited; see SessionStore). */
    explicit SessionCache(size_t max_sessions = 4,
                          const std::string &session_dir = {},
                          size_t session_dir_cap_bytes = 0);

    /** Find-or-create the session for @p spec. @throws FatalError
     *  for an invalid spec (unknown preset). */
    std::shared_ptr<Session> acquire(const DesignSpec &spec);

    /** The persistence layer (always present; disabled when no
     *  session_dir was given). */
    SessionStore &store() { return *store_; }

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        size_t sessions = 0;
        /** Disk-restore outcomes (SessionStore::Stats mirror). */
        uint64_t restoreHits = 0;
        uint64_t restoreMisses = 0;
        uint64_t restoreFailures = 0;
        uint64_t saves = 0;
    };
    Stats stats() const;

  private:
    struct Slot
    {
        std::shared_ptr<Session> session;
        uint64_t lastUse = 0;
    };

    mutable std::mutex mutex_;
    std::unique_ptr<SessionStore> store_;
    size_t maxSessions_;
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    std::vector<Slot> slots_; ///< tiny N; linear scan is fine
};

} // namespace archval::service

#endif // ARCHVAL_SERVICE_SESSION_CACHE_HH
