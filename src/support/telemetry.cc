#include "telemetry.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "logging.hh"
#include "memusage.hh"
#include "strings.hh"

namespace archval::telemetry
{

namespace
{

/** CAS-loop add for pre-C++20-style portability across libstdc++
 *  versions (and so TSan sees an explicit atomic RMW). */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

// ---------------------------------------------------------------------
// Metric name tables: lock-sharded so registration from many threads
// never serializes on one mutex. Values are unique_ptrs, so handles
// stay stable for the process lifetime.
// ---------------------------------------------------------------------

constexpr size_t kNameShards = 16;

template <typename T>
struct ShardedRegistry
{
    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<std::string, std::unique_ptr<T>> map;
    };
    std::array<Shard, kNameShards> shards;

    static size_t shardOf(std::string_view name)
    {
        return std::hash<std::string_view>{}(name) % kNameShards;
    }

    template <typename... Args>
    T &findOrCreate(std::string_view name, Args &&...args)
    {
        Shard &shard = shards[shardOf(name)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(std::string(name));
        if (it == shard.map.end()) {
            it = shard.map
                     .emplace(std::string(name),
                              std::make_unique<T>(
                                  std::forward<Args>(args)...))
                     .first;
        }
        return *it->second;
    }

    template <typename Fn>
    void forEach(Fn fn)
    {
        for (Shard &shard : shards) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (auto &[name, value] : shard.map)
                fn(name, *value);
        }
    }
};

// ---------------------------------------------------------------------
// Span ring buffers: one per OS thread, registered centrally so the
// exporter can reach them. The owner thread takes the buffer mutex
// for a few instructions per span (uncontended except during a
// flush), which keeps the exporter race-free without fancier
// machinery.
// ---------------------------------------------------------------------

struct SpanEvent
{
    const char *name = nullptr;
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint64_t jobId = 0; ///< correlation id (0 = none), see JobScope
    const char *keys[2] = {nullptr, nullptr};
    uint64_t values[2] = {0, 0};
    int numArgs = 0;
};

struct ThreadBuffer
{
    std::mutex mutex;
    uint32_t tid = 0;
    std::string threadName;
    std::vector<SpanEvent> events; ///< ring once size hits capacity
    size_t head = 0;               ///< oldest element when full
    size_t capacity = 0;
};

struct Global
{
    std::atomic<bool> tracing{false};
    std::mutex mutex; ///< options + buffer registry
    TelemetryOptions options;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::atomic<uint32_t> nextTid{1};
    std::atomic<uint64_t> dropped{0};

    std::mutex lifecycleMutex; ///< serializes init/shutdown

    std::thread heartbeatThread;
    std::mutex hbMutex;
    std::condition_variable hbCv;
    bool hbStop = false;
    bool hbRunning = false; ///< guarded by lifecycleMutex

    ShardedRegistry<Counter> counters;
    ShardedRegistry<Gauge> gauges;
    ShardedRegistry<Histogram> histograms;
};

/** Leaked on purpose: spans may be recorded during static
 *  destruction of other objects; the registry must outlive them. */
Global &
global()
{
    static Global *g = new Global;
    return *g;
}

ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto b = std::make_shared<ThreadBuffer>();
        Global &g = global();
        b->tid = g.nextTid.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(g.mutex);
        b->capacity = g.options.spanRingCapacity
                          ? g.options.spanRingCapacity
                          : TelemetryOptions{}.spanRingCapacity;
        g.buffers.push_back(b);
        return b;
    }();
    return *buffer;
}

void
recordSpan(const SpanEvent &event)
{
    ThreadBuffer &b = threadBuffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.events.size() < b.capacity) {
        b.events.push_back(event);
    } else if (b.capacity) {
        // Ring full: overwrite the oldest span. Keeping the newest
        // is right for post-mortem traces — the tail explains where
        // the run ended up.
        b.events[b.head] = event;
        b.head = (b.head + 1) % b.capacity;
        global().dropped.fetch_add(1, std::memory_order_relaxed);
    }
}

void
stopHeartbeatLocked(Global &g)
{
    if (!g.hbRunning)
        return;
    {
        std::lock_guard<std::mutex> lock(g.hbMutex);
        g.hbStop = true;
    }
    g.hbCv.notify_all();
    g.heartbeatThread.join();
    g.hbRunning = false;
}

void
startHeartbeatLocked(Global &g, double seconds, std::string tag,
                     bool deltas)
{
    {
        std::lock_guard<std::mutex> lock(g.hbMutex);
        g.hbStop = false;
    }
    g.heartbeatThread = std::thread([seconds, tag = std::move(tag),
                                     deltas] {
        Global &g = global();
        RegistrySnapshot prev;
        uint64_t prev_ns = nowNs();
        if (deltas)
            prev = snapshotMetrics();
        bool beat_fired = false;
        std::unique_lock<std::mutex> lock(g.hbMutex);
        for (;;) {
            g.hbCv.wait_for(
                lock, std::chrono::duration<double>(seconds),
                [&g] { return g.hbStop; });
            const bool stopping = g.hbStop;
            if (stopping && !beat_fired)
                break; // stopped before the first tick: stay silent
            lock.unlock();
            // The tick itself runs with hbMutex released so a beat
            // never delays init/shutdown. The final beat (stopping
            // == true) still happens-before the join in
            // stopHeartbeatLocked, and therefore before the trace
            // export's embedded registry snapshot — shutdown always
            // serializes one last deterministic snapshot instead of
            // racing a half-finished tick.
            sampleProcessMemory();
            RegistrySnapshot snap = snapshotMetrics();
            uint64_t now = nowNs();
            logTagged(LogLevel::Info, tag.c_str(),
                      deltas ? snap.renderCompactDelta(
                                   prev, double(now - prev_ns) / 1e9)
                             : snap.renderCompact());
            if (deltas) {
                prev = std::move(snap);
                prev_ns = now;
            }
            beat_fired = true;
            lock.lock();
            if (stopping || g.hbStop)
                break;
        }
    });
    g.hbRunning = true;
}

/** Shut down under g.lifecycleMutex (held by the caller). */
void
shutdownLocked(Global &g)
{
    stopHeartbeatLocked(g);
    bool was_tracing = g.tracing.exchange(false,
                                          std::memory_order_acq_rel);
    std::string path;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        path = g.options.tracePath;
    }
    if (was_tracing && !path.empty()) {
        if (!writeTrace(path))
            logWarn("telemetry: failed to write trace to " + path);
    }
}

std::string
jsonQuote(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += formatString("\\u%04x", c);
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
}

void
Histogram::record(double value)
{
    size_t bucket = std::upper_bound(bounds_.begin(), bounds_.end(),
                                     value) -
                    bounds_.begin();
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, value);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    return buckets_[i].load(std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    uint64_t total = count();
    if (total == 0)
        return 0.0;
    uint64_t rank = static_cast<uint64_t>(q * double(total));
    if (rank >= total)
        rank = total - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        uint64_t in_bucket = bucketCount(i);
        if (seen + in_bucket <= rank) {
            seen += in_bucket;
            continue;
        }
        // Interpolate within the bucket. The overflow bucket has no
        // upper bound: report its lower edge.
        double lo = i == 0 ? 0.0 : bounds_[i - 1];
        if (i == bounds_.size())
            return lo;
        double hi = bounds_[i];
        double frac = in_bucket
                          ? double(rank - seen + 1) / double(in_bucket)
                          : 0.0;
        return lo + (hi - lo) * frac;
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
}

const std::vector<double> &
latencyBoundsSeconds()
{
    static const std::vector<double> bounds = {
        1e-6,   4e-6,   16e-6, 64e-6, 256e-6, 1e-3, 4e-3,
        16e-3,  64e-3,  0.25,  1.0,   4.0,    16.0, 64.0,
    };
    return bounds;
}

const std::vector<double> &
depthBounds()
{
    static const std::vector<double> bounds = {
        16.0,     64.0,     256.0,     1024.0,    4096.0,
        16384.0,  65536.0,  262144.0,  1048576.0, 4194304.0,
        16777216.0,
    };
    return bounds;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Counter &
counter(std::string_view name)
{
    return global().counters.findOrCreate(name);
}

Gauge &
gauge(std::string_view name)
{
    return global().gauges.findOrCreate(name);
}

Histogram &
histogram(std::string_view name, const std::vector<double> &bounds)
{
    return global().histograms.findOrCreate(name, bounds);
}

RegistrySnapshot
snapshotMetrics()
{
    Global &g = global();
    RegistrySnapshot snap;
    g.counters.forEach([&](const std::string &name, Counter &c) {
        MetricSample s;
        s.kind = MetricSample::Kind::Counter;
        s.name = name;
        s.count = c.value();
        snap.samples.push_back(std::move(s));
    });
    g.gauges.forEach([&](const std::string &name, Gauge &gg) {
        MetricSample s;
        s.kind = MetricSample::Kind::Gauge;
        s.name = name;
        s.gauge = gg.value();
        int64_t seen_max = gg.maxValue();
        s.gaugeMax = seen_max == INT64_MIN ? s.gauge : seen_max;
        snap.samples.push_back(std::move(s));
    });
    g.histograms.forEach([&](const std::string &name, Histogram &h) {
        MetricSample s;
        s.kind = MetricSample::Kind::Histogram;
        s.name = name;
        s.count = h.count();
        s.sum = h.sum();
        s.p50 = h.quantile(0.50);
        s.p90 = h.quantile(0.90);
        s.bounds = h.bounds();
        s.buckets.resize(s.bounds.size() + 1);
        for (size_t i = 0; i < s.buckets.size(); ++i)
            s.buckets[i] = h.bucketCount(i);
        snap.samples.push_back(std::move(s));
    });
    std::sort(snap.samples.begin(), snap.samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return snap;
}

std::string
RegistrySnapshot::render() const
{
    std::string out;
    for (const MetricSample &s : samples) {
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            out += formatString("%-40s %20s\n", s.name.c_str(),
                                withCommas(s.count).c_str());
            break;
          case MetricSample::Kind::Gauge:
            out += formatString("%-40s %20lld (max %lld)\n",
                                s.name.c_str(), (long long)s.gauge,
                                (long long)s.gaugeMax);
            break;
          case MetricSample::Kind::Histogram:
            out += formatString(
                "%-40s %20s  sum %.6g  p50 %.4g  p90 %.4g\n",
                s.name.c_str(), withCommas(s.count).c_str(), s.sum,
                s.p50, s.p90);
            break;
        }
    }
    return out;
}

std::string
RegistrySnapshot::renderCompact() const
{
    std::string out;
    for (const MetricSample &s : samples) {
        bool zero =
            (s.kind == MetricSample::Kind::Counter && s.count == 0) ||
            (s.kind == MetricSample::Kind::Gauge && s.gauge == 0 &&
             s.gaugeMax == 0) ||
            (s.kind == MetricSample::Kind::Histogram && s.count == 0);
        if (zero)
            continue;
        if (!out.empty())
            out += ' ';
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            out += formatString("%s=%llu", s.name.c_str(),
                                (unsigned long long)s.count);
            break;
          case MetricSample::Kind::Gauge:
            out += formatString("%s=%lld", s.name.c_str(),
                                (long long)s.gauge);
            break;
          case MetricSample::Kind::Histogram:
            out += formatString("%s=n%llu/p50=%.3g", s.name.c_str(),
                                (unsigned long long)s.count, s.p50);
            break;
        }
    }
    return out.empty() ? std::string("(no metrics)") : out;
}

std::string
RegistrySnapshot::renderCompactDelta(const RegistrySnapshot &prev,
                                     double seconds) const
{
    // Both sample lists are name-sorted; walk them together.
    std::string out;
    size_t p = 0;
    auto rate_suffix = [&](uint64_t now_count, uint64_t prev_count) {
        if (seconds <= 0.0 || now_count < prev_count)
            return std::string();
        return formatString("(+%.3g/s)",
                            double(now_count - prev_count) / seconds);
    };
    for (const MetricSample &s : samples) {
        while (p < prev.samples.size() && prev.samples[p].name < s.name)
            ++p;
        const MetricSample *before =
            (p < prev.samples.size() && prev.samples[p].name == s.name &&
             prev.samples[p].kind == s.kind)
                ? &prev.samples[p]
                : nullptr;
        bool zero =
            (s.kind == MetricSample::Kind::Counter && s.count == 0) ||
            (s.kind == MetricSample::Kind::Gauge && s.gauge == 0 &&
             s.gaugeMax == 0) ||
            (s.kind == MetricSample::Kind::Histogram && s.count == 0);
        if (zero)
            continue;
        if (!out.empty())
            out += ' ';
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            out += formatString(
                "%s=%llu%s", s.name.c_str(),
                (unsigned long long)s.count,
                rate_suffix(s.count, before ? before->count : 0)
                    .c_str());
            break;
          case MetricSample::Kind::Gauge:
            out += formatString("%s=%lld", s.name.c_str(),
                                (long long)s.gauge);
            break;
          case MetricSample::Kind::Histogram:
            out += formatString(
                "%s=n%llu%s/p50=%.3g", s.name.c_str(),
                (unsigned long long)s.count,
                rate_suffix(s.count, before ? before->count : 0)
                    .c_str(),
                s.p50);
            break;
        }
    }
    return out.empty() ? std::string("(no metrics)") : out;
}

std::string
metricsJson(const RegistrySnapshot &snap)
{
    std::string out = "{";
    bool first = true;
    auto field = [&](const std::string &key, const std::string &val) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonQuote(key) + ": " + val;
    };
    for (const MetricSample &s : snap.samples) {
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            field(s.name, formatString("%llu",
                                       (unsigned long long)s.count));
            break;
          case MetricSample::Kind::Gauge:
            field(s.name, formatString("%lld", (long long)s.gauge));
            field(s.name + ".max",
                  formatString("%lld", (long long)s.gaugeMax));
            break;
          case MetricSample::Kind::Histogram:
            field(s.name + ".count",
                  formatString("%llu", (unsigned long long)s.count));
            field(s.name + ".sum", formatString("%.10g", s.sum));
            field(s.name + ".p50", formatString("%.10g", s.p50));
            field(s.name + ".p90", formatString("%.10g", s.p90));
            break;
        }
    }
    out += "}";
    return out;
}

namespace
{

/** Sanitize one metric-name component into the Prometheus name
 *  charset `[a-zA-Z0-9_:]` (dots become underscores). */
std::string
promSanitize(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

std::string
promEscapeLabelValue(std::string_view text)
{
    std::string out;
    for (char c : text) {
        if (c == '\\' || c == '"') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

/** A registry name split into its exposition family and labels:
 *  `service.job_run_seconds{verb=replay}` becomes family
 *  `archval_service_job_run_seconds` with labels
 *  `verb="replay"`. */
struct PromName
{
    std::string family;
    std::string labels; ///< rendered `k="v",...` without braces
    std::string help;   ///< registry base name, for the HELP line
};

PromName
promName(const std::string &name)
{
    std::string base = name;
    std::string label_part;
    size_t brace = name.find('{');
    if (brace != std::string::npos && name.back() == '}') {
        base = name.substr(0, brace);
        label_part = name.substr(brace + 1, name.size() - brace - 2);
    }
    PromName pn;
    pn.help = base;
    pn.family = "archval_" + promSanitize(base);
    size_t pos = 0;
    while (pos < label_part.size()) {
        size_t comma = label_part.find(',', pos);
        if (comma == std::string::npos)
            comma = label_part.size();
        std::string_view pair =
            std::string_view(label_part).substr(pos, comma - pos);
        size_t eq = pair.find('=');
        if (eq != std::string_view::npos) {
            if (!pn.labels.empty())
                pn.labels += ',';
            pn.labels += promSanitize(pair.substr(0, eq));
            pn.labels += "=\"";
            pn.labels += promEscapeLabelValue(pair.substr(eq + 1));
            pn.labels += '"';
        }
        pos = comma + 1;
    }
    return pn;
}

} // namespace

std::string
renderPrometheus(const RegistrySnapshot &snap)
{
    // Group samples into exposition families so labelled variants of
    // one metric share a single HELP/TYPE header and stay
    // consecutive (the format requires family grouping).
    struct Family
    {
        std::string type;
        std::string help;
        std::vector<std::string> lines;
    };
    std::vector<std::string> order;
    std::unordered_map<std::string, Family> families;
    auto family = [&](const std::string &name, const char *type,
                      const std::string &help) -> Family & {
        auto [it, inserted] = families.try_emplace(name);
        if (inserted) {
            order.push_back(name);
            it->second.type = type;
            it->second.help = help;
        }
        return it->second;
    };
    auto braced = [](const std::string &labels) {
        return labels.empty() ? std::string() : "{" + labels + "}";
    };

    for (const MetricSample &s : snap.samples) {
        PromName pn = promName(s.name);
        switch (s.kind) {
          case MetricSample::Kind::Counter: {
            Family &f = family(pn.family + "_total", "counter",
                               pn.help);
            f.lines.push_back(formatString(
                "%s_total%s %llu", pn.family.c_str(),
                braced(pn.labels).c_str(),
                (unsigned long long)s.count));
            break;
          }
          case MetricSample::Kind::Gauge: {
            Family &f = family(pn.family, "gauge", pn.help);
            f.lines.push_back(formatString(
                "%s%s %lld", pn.family.c_str(),
                braced(pn.labels).c_str(), (long long)s.gauge));
            Family &fm = family(pn.family + "_max", "gauge",
                                pn.help + " (running maximum)");
            fm.lines.push_back(formatString(
                "%s_max%s %lld", pn.family.c_str(),
                braced(pn.labels).c_str(), (long long)s.gaugeMax));
            break;
          }
          case MetricSample::Kind::Histogram: {
            Family &f = family(pn.family, "histogram", pn.help);
            uint64_t cumulative = 0;
            for (size_t i = 0; i < s.bounds.size(); ++i) {
                cumulative += i < s.buckets.size() ? s.buckets[i] : 0;
                std::string labels = pn.labels;
                if (!labels.empty())
                    labels += ',';
                labels += formatString("le=\"%.10g\"", s.bounds[i]);
                f.lines.push_back(formatString(
                    "%s_bucket{%s} %llu", pn.family.c_str(),
                    labels.c_str(), (unsigned long long)cumulative));
            }
            std::string inf_labels = pn.labels;
            if (!inf_labels.empty())
                inf_labels += ',';
            inf_labels += "le=\"+Inf\"";
            f.lines.push_back(formatString(
                "%s_bucket{%s} %llu", pn.family.c_str(),
                inf_labels.c_str(), (unsigned long long)s.count));
            f.lines.push_back(formatString(
                "%s_sum%s %.10g", pn.family.c_str(),
                braced(pn.labels).c_str(), s.sum));
            f.lines.push_back(formatString(
                "%s_count%s %llu", pn.family.c_str(),
                braced(pn.labels).c_str(),
                (unsigned long long)s.count));
            break;
          }
        }
    }

    std::string out;
    for (const std::string &name : order) {
        const Family &f = families[name];
        out += formatString("# HELP %s archval metric %s\n",
                            name.c_str(), f.help.c_str());
        out += formatString("# TYPE %s %s\n", name.c_str(),
                            f.type.c_str());
        for (const std::string &line : f.lines) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

void
sampleProcessMemory()
{
    gauge("process.rss_bytes")
        .set(static_cast<int64_t>(currentRssBytes()));
    gauge("process.peak_rss_bytes")
        .set(static_cast<int64_t>(peakRssBytes()));
}

void
resetMetricsForTesting()
{
    Global &g = global();
    g.counters.forEach([](const std::string &, Counter &c) {
        c.value_.store(0, std::memory_order_relaxed);
    });
    g.gauges.forEach([](const std::string &, Gauge &gg) {
        gg.value_.store(0, std::memory_order_relaxed);
        gg.max_.store(INT64_MIN, std::memory_order_relaxed);
    });
    g.histograms.forEach([](const std::string &, Histogram &h) {
        for (auto &bucket : h.buckets_)
            bucket.store(0, std::memory_order_relaxed);
        h.count_.store(0, std::memory_order_relaxed);
        h.sum_.store(0.0, std::memory_order_relaxed);
    });
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

uint64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

bool
tracingEnabled()
{
    return global().tracing.load(std::memory_order_relaxed);
}

void
setThreadName(const std::string &name)
{
    if (!tracingEnabled())
        return;
    ThreadBuffer &b = threadBuffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    b.threadName = name;
}

namespace
{
thread_local uint64_t tCurrentJobId = 0;
} // namespace

uint64_t
currentJobId()
{
    return tCurrentJobId;
}

JobScope::JobScope(uint64_t jobId) : prev_(tCurrentJobId)
{
    tCurrentJobId = jobId;
}

JobScope::~JobScope()
{
    tCurrentJobId = prev_;
}

ScopedSpan::ScopedSpan(const char *name, int num_args)
    : name_(nullptr), numArgs_(num_args)
{
    if (!tracingEnabled())
        return;
    name_ = name;
    startNs_ = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!name_)
        return;
    SpanEvent event;
    event.name = name_;
    event.startNs = startNs_;
    event.durNs = nowNs() - startNs_;
    event.jobId = tCurrentJobId;
    event.numArgs = numArgs_;
    for (int i = 0; i < numArgs_; ++i) {
        event.keys[i] = keys_[i];
        event.values[i] = values_[i];
    }
    recordSpan(event);
}

uint64_t
droppedSpans()
{
    return global().dropped.load(std::memory_order_relaxed);
}

bool
writeTrace(const std::string &path)
{
    if (path.empty())
        return true;
    Global &g = global();

    struct ThreadDump
    {
        uint32_t tid;
        std::string name;
        std::vector<SpanEvent> events;
    };
    std::vector<ThreadDump> threads;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        threads.reserve(g.buffers.size());
        for (const auto &b : g.buffers) {
            std::lock_guard<std::mutex> buffer_lock(b->mutex);
            ThreadDump dump;
            dump.tid = b->tid;
            dump.name = b->threadName;
            dump.events.reserve(b->events.size());
            for (size_t i = 0; i < b->events.size(); ++i) {
                dump.events.push_back(
                    b->events[(b->head + i) % b->events.size()]);
            }
            threads.push_back(std::move(dump));
        }
    }

    // Flatten and sort by start time for a deterministic, viewer-
    // friendly file.
    struct Flat
    {
        uint32_t tid;
        SpanEvent event;
    };
    std::vector<Flat> flat;
    for (const ThreadDump &t : threads) {
        for (const SpanEvent &e : t.events)
            flat.push_back({t.tid, e});
    }
    std::sort(flat.begin(), flat.end(),
              [](const Flat &a, const Flat &b) {
                  if (a.event.startNs != b.event.startNs)
                      return a.event.startNs < b.event.startNs;
                  return a.tid < b.tid;
              });

    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::fprintf(file, "{\n\"traceEvents\": [\n");
    std::fprintf(file,
                 "{\"ph\": \"M\", \"name\": \"process_name\", "
                 "\"pid\": 1, \"tid\": 0, "
                 "\"args\": {\"name\": \"archval\"}}");
    for (const ThreadDump &t : threads) {
        std::string name = t.name.empty()
                               ? formatString("thread-%u", t.tid)
                               : t.name;
        std::fprintf(file,
                     ",\n{\"ph\": \"M\", \"name\": \"thread_name\", "
                     "\"pid\": 1, \"tid\": %u, "
                     "\"args\": {\"name\": %s}}",
                     t.tid, jsonQuote(name).c_str());
    }
    for (const Flat &f : flat) {
        const SpanEvent &e = f.event;
        std::fprintf(file,
                     ",\n{\"ph\": \"X\", \"name\": %s, "
                     "\"cat\": \"archval\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f",
                     jsonQuote(e.name).c_str(), f.tid,
                     double(e.startNs) / 1e3, double(e.durNs) / 1e3);
        if (e.numArgs || e.jobId) {
            std::fprintf(file, ", \"args\": {");
            bool first = true;
            if (e.jobId) {
                std::fprintf(file, "\"job\": %llu",
                             (unsigned long long)e.jobId);
                first = false;
            }
            for (int i = 0; i < e.numArgs; ++i) {
                std::fprintf(file, "%s%s: %llu", first ? "" : ", ",
                             jsonQuote(e.keys[i]).c_str(),
                             (unsigned long long)e.values[i]);
                first = false;
            }
            std::fprintf(file, "}");
        }
        std::fprintf(file, "}");
    }
    std::fprintf(file, "\n],\n\"displayTimeUnit\": \"ms\",\n");
    std::fprintf(file,
                 "\"otherData\": {\"droppedSpans\": %llu, "
                 "\"metrics\": %s}\n}\n",
                 (unsigned long long)droppedSpans(),
                 metricsJson(snapshotMetrics()).c_str());
    return std::fclose(file) == 0;
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

void
initTelemetry(const TelemetryOptions &options)
{
    Global &g = global();
    std::lock_guard<std::mutex> lifecycle(g.lifecycleMutex);
    shutdownLocked(g);
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        g.options = options;
        // Fresh trace: clear anything recorded under the previous
        // configuration and re-apply the ring capacity.
        for (const auto &b : g.buffers) {
            std::lock_guard<std::mutex> buffer_lock(b->mutex);
            b->events.clear();
            b->head = 0;
            b->capacity = options.spanRingCapacity;
        }
        g.dropped.store(0, std::memory_order_relaxed);
    }
    if (options.heartbeatSeconds > 0)
        startHeartbeatLocked(g, options.heartbeatSeconds,
                             options.heartbeatTag,
                             options.heartbeatDeltas);
    if (!options.tracePath.empty())
        g.tracing.store(true, std::memory_order_release);
}

void
initTelemetryFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *trace = std::getenv("ARCHVAL_TRACE");
        const char *heartbeat = std::getenv("ARCHVAL_HEARTBEAT");
        if (!trace && !heartbeat)
            return;
        TelemetryOptions options;
        if (trace)
            options.tracePath = trace;
        if (heartbeat)
            options.heartbeatSeconds = std::atof(heartbeat);
        const char *deltas = std::getenv("ARCHVAL_HEARTBEAT_DELTAS");
        options.heartbeatDeltas =
            deltas && *deltas && std::string_view(deltas) != "0";
        // The heartbeat was asked for explicitly; make sure its Info
        // lines are admitted.
        if (options.heartbeatSeconds > 0 &&
            static_cast<int>(logLevel()) <
                static_cast<int>(LogLevel::Info))
            setLogLevel(LogLevel::Info);
        initTelemetry(options);
        std::atexit([] { shutdownTelemetry(); });
    });
}

void
shutdownTelemetry()
{
    Global &g = global();
    std::lock_guard<std::mutex> lifecycle(g.lifecycleMutex);
    shutdownLocked(g);
}

} // namespace archval::telemetry
