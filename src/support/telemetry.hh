/**
 * @file
 * Process-wide observability: a metrics registry and tracing spans.
 *
 * Two independent facilities share this module:
 *
 *  - **Metrics registry.** Named counters, gauges and fixed-bucket
 *    histograms. Registration (`telemetry::counter("replay.hits")`)
 *    walks a lock-sharded name table once and returns a typed handle
 *    whose operations are plain atomics — cheap enough to leave
 *    enabled unconditionally, so every pipeline's counters are live
 *    in every build. `snapshotMetrics()` captures the whole registry
 *    for rendering, the heartbeat, and bench `--json` embedding.
 *
 *  - **Tracing spans.** `ScopedSpan` records an RAII-delimited
 *    interval into a per-thread ring buffer; `writeTrace()` (called
 *    by `shutdownTelemetry()`) exports every buffer as Chrome
 *    trace-event / Perfetto-compatible JSON, with thread-name
 *    metadata and per-span numeric args. Tracing is off by default:
 *    the whole span path is gated behind one relaxed atomic load, so
 *    a disabled span costs a compare-and-branch and touches nothing.
 *
 * Enable tracing either programmatically (`initTelemetry` with a
 * non-empty `tracePath`) or by environment: `ARCHVAL_TRACE=out.json`
 * (read by `initTelemetryFromEnv()`, which benches call on startup).
 * `ARCHVAL_HEARTBEAT=<seconds>` additionally starts the progress
 * heartbeat, a background thread that logs a one-line registry
 * snapshot through the tagged logger at that interval.
 *
 * Metric naming scheme: `<subsystem>.<noun>[_<unit>]`, e.g.
 * `enum.states`, `replay.stride_hits`,
 * `enum.spill_bytes`. Subsystem prefixes in use: `enum`,
 * `replay`, `player`, `fuzz`, `hunt`.
 */

#ifndef ARCHVAL_SUPPORT_TELEMETRY_HH
#define ARCHVAL_SUPPORT_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace archval::telemetry
{

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/** Telemetry configuration (see initTelemetry). */
struct TelemetryOptions
{
    /** Trace-JSON output path; empty leaves tracing disabled (spans
     *  become no-ops and shutdown writes no file). */
    std::string tracePath;

    /** Heartbeat interval in seconds; 0 starts no heartbeat. */
    double heartbeatSeconds = 0.0;

    /** Tag the heartbeat logs under, e.g. `[info][telemetry] ...`. */
    std::string heartbeatTag = "telemetry";

    /** Report per-metric rates since the previous beat
     *  (`name=total(+rate/s)`) instead of monotone totals only, so
     *  long sessions show throughput trends. Env:
     *  `ARCHVAL_HEARTBEAT_DELTAS=1`. */
    bool heartbeatDeltas = false;

    /** Per-thread span ring capacity; the oldest spans are dropped
     *  once a thread exceeds it (the drop count is exported). */
    size_t spanRingCapacity = 1 << 16;
};

/**
 * (Re)configure telemetry: arm tracing when `tracePath` is non-empty
 * and start the heartbeat when `heartbeatSeconds > 0`. Any previous
 * configuration is shut down first (flushing its trace); previously
 * recorded spans are cleared so each init starts a fresh trace.
 * Thread-safe and idempotent.
 */
void initTelemetry(const TelemetryOptions &options);

/**
 * Configure from the environment: `ARCHVAL_TRACE` (trace path) and
 * `ARCHVAL_HEARTBEAT` (seconds). Acts only on the first call (so
 * library and bench helpers may both call it) and registers an
 * atexit hook that flushes the trace when the process ends. No-op
 * when neither variable is set.
 */
void initTelemetryFromEnv();

/**
 * Stop the heartbeat, write the trace file (when tracing was armed),
 * and disable tracing. Metrics survive — the registry is
 * process-lifetime. Safe to call concurrently and repeatedly; only
 * one caller writes.
 */
void shutdownTelemetry();

/** @return true when spans are currently recorded (one relaxed
 *  atomic load — the span fast path). */
bool tracingEnabled();

/** Zero every registered metric (handles stay valid). Testing only:
 *  the registry is deliberately monotonic in production. */
void resetMetricsForTesting();

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Monotonic counter. All operations are relaxed atomics. */
class Counter
{
  public:
    void add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend void resetMetricsForTesting();
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value, with a running maximum. */
class Gauge
{
  public:
    void set(int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
        int64_t seen = max_.load(std::memory_order_relaxed);
        while (value > seen &&
               !max_.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
        }
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    int64_t maxValue() const
    {
        return max_.load(std::memory_order_relaxed);
    }

  private:
    friend void resetMetricsForTesting();
    std::atomic<int64_t> value_{0};
    std::atomic<int64_t> max_{INT64_MIN};
};

/**
 * Fixed-bucket histogram: counts per bucket plus exact running count
 * and sum. Bucket `i` counts samples `<= bounds[i]`; one overflow
 * bucket counts the rest. Bounds are fixed at registration; every
 * record is a handful of relaxed atomics.
 */
class Histogram
{
  public:
    /** @param bounds ascending upper bounds (seconds, cycles, ...). */
    explicit Histogram(std::vector<double> bounds);

    void record(double value);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Sum of samples. */
    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    const std::vector<double> &bounds() const { return bounds_; }

    /** @return the count in bucket @p i (bounds().size() + 1 total). */
    uint64_t bucketCount(size_t i) const;

    /** @return bucket-interpolated quantile @p q in [0, 1]. */
    double quantile(double q) const;

  private:
    friend void resetMetricsForTesting();
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> buckets_; ///< bounds + overflow
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0}; ///< CAS-loop accumulated
};

/** Default histogram bounds: exponential seconds, 1 µs .. 64 s. */
const std::vector<double> &latencyBoundsSeconds();

/** Default histogram bounds: powers of four, 16 .. 2^24. */
const std::vector<double> &depthBounds();

/**
 * Find-or-create the counter/gauge/histogram named @p name. Handles
 * are stable for the process lifetime; repeated calls with one name
 * return the same object (a histogram keeps its first bounds). Do
 * the lookup once and keep the reference — the handle operations,
 * not these functions, are the hot path.
 */
Counter &counter(std::string_view name);
Gauge &gauge(std::string_view name);
Histogram &histogram(std::string_view name,
                     const std::vector<double> &bounds =
                         latencyBoundsSeconds());

/** Point-in-time copy of one metric, for rendering/serialization. */
struct MetricSample
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };
    Kind kind = Kind::Counter;
    std::string name;
    uint64_t count = 0;  ///< counter value / histogram sample count
    int64_t gauge = 0;   ///< gauge current value
    int64_t gaugeMax = 0;
    double sum = 0.0;    ///< histogram sample sum
    double p50 = 0.0;    ///< histogram interpolated median
    double p90 = 0.0;
    std::vector<double> bounds;     ///< histogram bucket upper bounds
    std::vector<uint64_t> buckets;  ///< per-bucket counts
                                    ///< (bounds.size() + 1, overflow last)
};

/** Whole-registry snapshot, sorted by metric name. */
struct RegistrySnapshot
{
    std::vector<MetricSample> samples;

    /** @return multi-line aligned rendering (one metric per line). */
    std::string render() const;

    /** @return a one-line `name=value` digest (heartbeat format);
     *  zero-valued metrics are elided. */
    std::string renderCompact() const;

    /**
     * Like renderCompact(), with per-metric rates since @p prev:
     * counters and histogram sample counts render as
     * `name=total(+rate/s)` over the @p seconds between the two
     * snapshots; gauges stay instantaneous. Metrics zero in both
     * snapshots are elided; a metric absent from @p prev rates from
     * zero. Non-positive @p seconds suppresses the rates.
     */
    std::string renderCompactDelta(const RegistrySnapshot &prev,
                                   double seconds) const;
};

RegistrySnapshot snapshotMetrics();

/**
 * Flatten @p snap as a JSON object: counters as `"name": N`, gauges
 * as `"name": V` (+ `"name.max"`), histograms as `"name.count"`,
 * `"name.sum"`, `"name.p50"`, `"name.p90"`. Used by bench `--json`
 * emissions and the trace file's `otherData`.
 */
std::string metricsJson(const RegistrySnapshot &snap);

/**
 * Render @p snap in the Prometheus text exposition format (0.0.4).
 *
 * Naming rules: every series gets the `archval_` prefix, dots map to
 * underscores, counters gain `_total`, gauges additionally export a
 * `<name>_max` series (the running maximum), histograms export
 * cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
 * A registry name may embed labels with a `{key=value,...}` suffix
 * (e.g. `service.job_run_seconds{verb=replay}`); the suffix becomes
 * proper Prometheus labels and the labelled variants share one
 * HELP/TYPE family header.
 */
std::string renderPrometheus(const RegistrySnapshot &snap);

/** Sample this process's resident-set size via support/memusage into
 *  the max-tracking gauges `process.rss_bytes` and
 *  `process.peak_rss_bytes`. Called on every heartbeat tick; callers
 *  that snapshot the registry out-of-band (stats frames, Prometheus
 *  scrapes) should call it first so memory is never stale. */
void sampleProcessMemory();

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Name the calling thread in the exported trace ("vecgen.worker.3").
 *  No-op while tracing is disabled. */
void setThreadName(const std::string &name);

/** @return the calling thread's job correlation id (0 = none). */
uint64_t currentJobId();

/**
 * RAII job-correlation scope: while alive, every span the calling
 * thread records carries @p jobId (exported as `args.job` in the
 * trace), letting `trace_summary.py --job` attribute work across
 * worker threads. Engines capture `currentJobId()` before spawning
 * workers and re-install it inside each worker with this scope;
 * nesting restores the previous id on destruction.
 */
class JobScope
{
  public:
    explicit JobScope(uint64_t jobId);
    ~JobScope();

    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;

  private:
    uint64_t prev_;
};

/**
 * RAII tracing span: construction starts the interval, destruction
 * records it into the calling thread's ring buffer. `name` (and arg
 * keys) must be string literals or otherwise outlive the trace —
 * they are captured by pointer on purpose, keeping a disabled span
 * free of any allocation. Up to two numeric args are exported into
 * the span's `args` object.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : ScopedSpan(name, 0) {}

    ScopedSpan(const char *name, const char *key1, uint64_t value1)
        : ScopedSpan(name, 1)
    {
        keys_[0] = key1;
        values_[0] = value1;
    }

    ScopedSpan(const char *name, const char *key1, uint64_t value1,
               const char *key2, uint64_t value2)
        : ScopedSpan(name, 2)
    {
        keys_[0] = key1;
        values_[0] = value1;
        keys_[1] = key2;
        values_[1] = value2;
    }

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    ScopedSpan(const char *name, int num_args);

    const char *name_; ///< nullptr when tracing was off at entry
    uint64_t startNs_ = 0;
    const char *keys_[2] = {nullptr, nullptr};
    uint64_t values_[2] = {0, 0};
    int numArgs_ = 0;
};

/** @return nanoseconds since the process's telemetry epoch (the
 *  clock spans and the heartbeat share). */
uint64_t nowNs();

/**
 * Serialize every recorded span as Chrome trace-event JSON into
 * @p path (shutdownTelemetry's flush; exposed for tests).
 * @return false on I/O failure.
 */
bool writeTrace(const std::string &path);

/** Total spans dropped to ring-buffer overflow (all threads). */
uint64_t droppedSpans();

} // namespace archval::telemetry

#endif // ARCHVAL_SUPPORT_TELEMETRY_HH
