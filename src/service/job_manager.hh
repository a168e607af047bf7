/**
 * @file
 * Job queue and executor for the archvald daemon.
 *
 * The JobManager owns a small worker pool. submit() assigns a
 * monotonically increasing job id, enqueues the request and returns
 * immediately; a worker later runs the job and streams its lifecycle
 * through the caller-supplied EventSink:
 *
 *   started -> progress* -> metrics -> result | error | cancelled
 *
 * Exactly one terminal event is emitted per job. Every failure mode
 * of a job — bad request, unknown preset, state explosion, tour
 * coverage failure — is caught and reported as an `error` event;
 * nothing a client sends can take the process down (the library
 * keeps panic() for genuine internal invariants only).
 *
 * Cancellation is cooperative: cancel() flips the job's atomic flag,
 * which is wired into murphi::EnumOptions, harness::ReplayOptions
 * and fuzz::CampaignOptions, so a running job stops at the next
 * source/job/round boundary and reports `cancelled`. A still-queued
 * job is cancelled without ever starting.
 *
 * Jobs resolve their Session through the shared SessionCache, so
 * concurrent jobs with equal design fingerprints share one product
 * chain and one set of replay warm rows — the second replay of a
 * trace set reuses the first one's bug-free donor runs even across
 * clients.
 */

#ifndef ARCHVAL_SERVICE_JOB_MANAGER_HH
#define ARCHVAL_SERVICE_JOB_MANAGER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rtl/faults.hh"
#include "service/session_cache.hh"
#include "support/json.hh"
#include "support/status.hh"

namespace archval::service
{

/** Streamed job event consumer (a connection writer, a test). Must
 *  be thread-safe; called from worker threads. */
using EventSink = std::function<void(const json::Value &event)>;

/** One parsed job request. */
struct JobRequest
{
    std::string verb; ///< enumerate | tour | replay | fuzz | bughunt
    DesignSpec design;
    rtl::BugSet bugs;

    unsigned threads = 2;        ///< replay / campaign workers
    size_t checkpointStride = 128; ///< replay snapshot stride
    uint64_t randomBudget = 30'000; ///< bughunt random-arm budget
    uint64_t roundInstructions = 10'000; ///< fuzz, per worker/round
    unsigned maxRounds = 4;      ///< fuzz campaign length
    uint64_t seed = 1;           ///< bughunt / fuzz seed

    /** Parse a request message. @return the request or an error
     *  (unknown verb, malformed bug list). */
    static Result<JobRequest> fromJson(const json::Value &message);
};

/** Point-in-time job descriptor (status / list verbs). */
struct JobInfo
{
    uint64_t id = 0;
    std::string verb;
    /** queued | running | done | failed | cancelled | rejected */
    std::string state;
    std::string detail; ///< fingerprint, error, or verdict
};

class JobManager
{
  public:
    /** Default admission bound on queued (not running) jobs. */
    static constexpr size_t kDefaultQueueBound = 64;

    /** @param sessions Shared session store.
     *  @param workers Concurrent job executors.
     *  @param queue_bound Admission bound across all clients; a
     *  submit past it is rejected with a `busy` error frame
     *  (0 picks kDefaultQueueBound). */
    explicit JobManager(SessionCache &sessions, unsigned workers = 2,
                        size_t queue_bound = 0);

    /** Drains and joins (equivalent to shutdown()). */
    ~JobManager();

    /**
     * Enqueue @p request. Emits an immediate `started`-on-dequeue
     * lifecycle into @p sink (see file comment). @return the job id.
     *
     * @p client keys admission fairness: queued jobs drain
     * round-robin across clients (FIFO within one client), so one
     * connection flooding the queue cannot starve the others — and
     * when the whole queue is at the bound, the submit is rejected
     * immediately with an `error` event carrying `"busy": true`
     * (job state "rejected") instead of queueing unboundedly.
     */
    uint64_t submit(JobRequest request, EventSink sink,
                    uint64_t client = 0);

    /** Request cooperative cancellation. @return false for an
     *  unknown id or a job already in a terminal state. */
    bool cancel(uint64_t id);

    /** @return the job's descriptor, if the id was ever assigned. */
    std::optional<JobInfo> status(uint64_t id) const;

    /** @return descriptors of every job, id order. */
    std::vector<JobInfo> list() const;

    /** Admission bound currently in force. */
    size_t queueBound() const { return queueBound_; }

    /** Queue + job-state overview for the `stats` verb: live depth,
     *  bound, per-client depths, and job counts by state. */
    json::Value overviewJson() const;

    /** JSON array of non-terminal (queued/running) jobs, for the
     *  flight recorder's active-job table. Callable from any
     *  thread, including a crash-dump path. */
    std::string activeJobsJson() const;

    /** Stop accepting, cancel queued jobs, join the workers. Safe to
     *  call repeatedly. */
    void shutdown();

  private:
    struct Job
    {
        uint64_t id = 0;
        uint64_t client = 0; ///< fairness key (submitting connection)
        JobRequest request;
        EventSink sink;
        std::atomic<bool> cancel{false};
        std::string state = "queued";
        std::string detail;
        uint64_t submitNs = 0;   ///< queue-wait measurement start
        uint64_t runStartNs = 0; ///< run-time measurement start
    };

    void workerLoop();
    void execute(Job &job);
    void emit(Job &job, const json::Value &event);
    void setState(Job &job, const std::string &state,
                  const std::string &detail);
    /** Remove @p job from its client's queue (mutex_ held).
     *  @return true when it was queued. */
    bool unqueueLocked(const std::shared_ptr<Job> &job);
    /** Refresh the queue gauges (mutex_ held). */
    void updateQueueGaugesLocked();

    SessionCache &sessions_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    uint64_t nextId_ = 1;
    size_t queueBound_;
    size_t queued_ = 0; ///< jobs across all per-client queues
    /** Admission structure: one FIFO per client plus a round-robin
     *  rotation of clients with work, so dequeue order interleaves
     *  clients fairly instead of draining one backlog first. */
    std::map<uint64_t, std::deque<std::shared_ptr<Job>>> queues_;
    std::deque<uint64_t> rotation_; ///< clients with non-empty queues
    std::map<uint64_t, std::shared_ptr<Job>> jobs_;
    std::vector<std::thread> workers_;
};

/** Parse a `bugs` JSON array ("bug1".."bug6" names or 0-based
 *  indices) into a BugSet. @return an error message or empty. */
std::string parseBugs(const json::Value &bugs, rtl::BugSet &out);

} // namespace archval::service

#endif // ARCHVAL_SERVICE_JOB_MANAGER_HH
