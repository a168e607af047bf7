/**
 * @file
 * Telemetry tests (ctest label `telemetry`, TSan-clean): concurrent
 * counter/gauge/histogram hammering must sum exactly; spans must
 * nest and order correctly in the exported trace; the trace JSON
 * must round-trip through a validating parser; disabled mode must
 * leave no file and record no spans; heartbeat start/stop and
 * concurrent shutdown must not race.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "support/telemetry.hh"

namespace archval::telemetry
{
namespace
{

// ---------------------------------------------------------------------
// A minimal validating JSON parser: enough of RFC 8259 to reject
// anything structurally malformed in the exported trace. Numbers are
// parsed as doubles; strings support the escapes writeTrace emits.
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing garbage");
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at " + std::to_string(pos_));
        ++pos_;
    }

    JsonValue parseValue()
    {
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            return parseNull();
          default:
            return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.object.emplace(key.string, parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue parseString()
    {
        JsonValue v;
        v.type = JsonValue::Type::String;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    throw std::runtime_error("bad escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    v.string += e;
                    break;
                  case 'n':
                    v.string += '\n';
                    break;
                  case 't':
                    v.string += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        throw std::runtime_error("bad \\u escape");
                    unsigned code = std::stoul(
                        text_.substr(pos_, 4), nullptr, 16);
                    pos_ += 4;
                    v.string += static_cast<char>(code & 0x7f);
                    break;
                  }
                  default:
                    throw std::runtime_error("unknown escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                throw std::runtime_error("raw control char in string");
            } else {
                v.string += c;
            }
        }
        if (pos_ >= text_.size())
            throw std::runtime_error("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    JsonValue parseNumber()
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            throw std::runtime_error("bad number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                throw std::runtime_error("bad fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                throw std::runtime_error("bad exponent");
        }
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    JsonValue parseBool()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            throw std::runtime_error("bad literal");
        }
        return v;
    }

    JsonValue parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            throw std::runtime_error("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    const std::string &text_;
    size_t pos_ = 0;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path);
    return in.good();
}

std::string
tempPath(const char *stem)
{
    return ::testing::TempDir() + stem;
}

/** RAII: restore disabled telemetry and delete the file on exit. */
struct TraceSession
{
    explicit TraceSession(std::string path_in,
                          size_t ring = TelemetryOptions{}.spanRingCapacity)
        : path(std::move(path_in))
    {
        std::remove(path.c_str());
        TelemetryOptions options;
        options.tracePath = path;
        options.spanRingCapacity = ring;
        initTelemetry(options);
    }
    ~TraceSession()
    {
        shutdownTelemetry();
        std::remove(path.c_str());
    }
    JsonValue finish()
    {
        shutdownTelemetry();
        JsonParser parser_text(text_ = slurp(path));
        return parser_text.parse();
    }
    std::string path;
    std::string text_;
};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(Metrics, CounterSumsExactlyAcrossThreads)
{
    Counter &c = counter("test.hammer_counter");
    const uint64_t before = c.value();
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 50'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.add(1);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value() - before, kThreads * kPerThread);
}

TEST(Metrics, HistogramSumsExactlyAcrossThreads)
{
    Histogram &h =
        histogram("test.hammer_histogram", {1.0, 10.0, 100.0});
    const uint64_t count_before = h.count();
    const double sum_before = h.sum();
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(double(t % 4)); // integer values: CAS sum
                                         // accumulation is exact
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(h.count() - count_before,
              uint64_t(kThreads) * kPerThread);
    // Sum of t%4 over t in [0,8) is 0+1+2+3+0+1+2+3 = 12 per round.
    EXPECT_DOUBLE_EQ(h.sum() - sum_before, 12.0 * kPerThread);
}

TEST(Metrics, HistogramBucketsAndQuantiles)
{
    Histogram h({1.0, 2.0, 4.0});
    for (int i = 0; i < 100; ++i)
        h.record(0.5); // all into bucket 0
    EXPECT_EQ(h.bucketCount(0), 100u);
    EXPECT_EQ(h.bucketCount(3), 0u);
    double p50 = h.quantile(0.5);
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 1.0);
    h.record(100.0); // overflow bucket
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0); // overflow lower edge
}

TEST(Metrics, GaugeTracksMax)
{
    Gauge &g = gauge("test.gauge_max");
    g.set(7);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.maxValue(), 7);
}

TEST(Metrics, HandlesAreStable)
{
    Counter &a = counter("test.stable_handle");
    Counter &b = counter("test.stable_handle");
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, SnapshotAndJson)
{
    counter("test.snap_counter").add(5);
    gauge("test.snap_gauge").set(-3);
    histogram("test.snap_hist").record(0.5);
    RegistrySnapshot snap = snapshotMetrics();
    ASSERT_FALSE(snap.samples.empty());
    // Sorted by name.
    for (size_t i = 1; i < snap.samples.size(); ++i)
        EXPECT_LT(snap.samples[i - 1].name, snap.samples[i].name);
    // The flattened JSON parses and carries the counter.
    std::string json = metricsJson(snap);
    JsonParser parser(json);
    JsonValue v = parser.parse();
    ASSERT_EQ(v.type, JsonValue::Type::Object);
    ASSERT_TRUE(v.has("test.snap_counter"));
    EXPECT_GE(v.at("test.snap_counter").number, 5.0);
    EXPECT_TRUE(v.has("test.snap_gauge"));
    EXPECT_TRUE(v.has("test.snap_hist.count"));
    EXPECT_TRUE(v.has("test.snap_hist.p50"));
    EXPECT_FALSE(snap.render().empty());
    EXPECT_FALSE(snap.renderCompact().empty());
}

TEST(Metrics, CompactDeltaReportsRates)
{
    Counter &c = counter("test.delta_counter");
    c.add(10);
    RegistrySnapshot before = snapshotMetrics();
    c.add(30);
    RegistrySnapshot after = snapshotMetrics();

    // 30 new counts over 2 seconds -> +15/s.
    std::string line = after.renderCompactDelta(before, 2.0);
    EXPECT_NE(line.find("test.delta_counter="), std::string::npos);
    EXPECT_NE(line.find("(+15/s)"), std::string::npos) << line;

    // A metric absent from the previous beat rates from zero.
    counter("test.delta_fresh").add(4);
    RegistrySnapshot later = snapshotMetrics();
    line = later.renderCompactDelta(before, 2.0);
    EXPECT_NE(line.find("test.delta_fresh=4(+2/s)"),
              std::string::npos)
        << line;

    // Non-positive interval suppresses the rate suffix but keeps
    // totals.
    line = after.renderCompactDelta(before, 0.0);
    EXPECT_NE(line.find("test.delta_counter="), std::string::npos);
    EXPECT_EQ(line.find("/s)"), std::string::npos) << line;
}

// ---------------------------------------------------------------------
// Spans and trace export
// ---------------------------------------------------------------------

TEST(Spans, DisabledModeLeavesNoFileAndNoSpans)
{
    shutdownTelemetry(); // ensure disabled
    ASSERT_FALSE(tracingEnabled());
    std::string path = tempPath("telemetry_disabled.json");
    std::remove(path.c_str());
    {
        ScopedSpan span("test.disabled");
        ScopedSpan with_args("test.disabled_args", "k", 1);
    }
    shutdownTelemetry();
    EXPECT_FALSE(fileExists(path));
}

TEST(Spans, TraceRoundTripsThroughValidatingParser)
{
    TraceSession session(tempPath("telemetry_roundtrip.json"));
    ASSERT_TRUE(tracingEnabled());
    setThreadName("test.main");
    {
        ScopedSpan outer("test.outer", "level", 3);
        {
            ScopedSpan inner("test.inner", "a", 1, "b", 2);
        }
        {
            ScopedSpan inner2("test.inner");
        }
    }
    JsonValue doc = session.finish();
    ASSERT_EQ(doc.type, JsonValue::Type::Object);
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto &events = doc.at("traceEvents").array;

    size_t x_events = 0;
    size_t meta_named = 0;
    for (const JsonValue &ev : events) {
        const std::string &ph = ev.at("ph").string;
        if (ph == "M") {
            if (ev.at("name").string == "thread_name" &&
                ev.at("args").at("name").string == "test.main")
                ++meta_named;
            continue;
        }
        ASSERT_EQ(ph, "X");
        EXPECT_TRUE(ev.has("ts"));
        EXPECT_TRUE(ev.has("dur"));
        EXPECT_GE(ev.at("dur").number, 0.0);
        ++x_events;
    }
    EXPECT_EQ(x_events, 3u);
    EXPECT_EQ(meta_named, 1u);
    EXPECT_TRUE(doc.at("otherData").has("metrics"));
    EXPECT_TRUE(doc.at("otherData").has("droppedSpans"));
}

TEST(Spans, NestingAndOrderingInvariants)
{
    TraceSession session(tempPath("telemetry_nesting.json"));
    {
        ScopedSpan outer("test.nest_outer");
        ScopedSpan inner("test.nest_inner");
    }
    JsonValue doc = session.finish();

    const JsonValue *outer = nullptr;
    const JsonValue *inner = nullptr;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string != "X")
            continue;
        if (ev.at("name").string == "test.nest_outer")
            outer = &ev;
        if (ev.at("name").string == "test.nest_inner")
            inner = &ev;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // Same thread; the child interval lies within the parent's.
    EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
    double o_start = outer->at("ts").number;
    double o_end = o_start + outer->at("dur").number;
    double i_start = inner->at("ts").number;
    double i_end = i_start + inner->at("dur").number;
    EXPECT_LE(o_start, i_start);
    EXPECT_GE(o_end, i_end);
    // Args survive the round-trip.
    ASSERT_TRUE(
        doc.at("traceEvents").array.size() >= 2);
}

TEST(Spans, SpanArgsExported)
{
    TraceSession session(tempPath("telemetry_args.json"));
    {
        ScopedSpan span("test.argspan", "trace", 17, "bug_set", 3);
    }
    JsonValue doc = session.finish();
    bool found = false;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string != "X" ||
            ev.at("name").string != "test.argspan")
            continue;
        found = true;
        EXPECT_DOUBLE_EQ(ev.at("args").at("trace").number, 17.0);
        EXPECT_DOUBLE_EQ(ev.at("args").at("bug_set").number, 3.0);
    }
    EXPECT_TRUE(found);
}

TEST(Spans, RingOverflowBoundsExportAndCountsDrops)
{
    constexpr size_t kRing = 64;
    TraceSession session(tempPath("telemetry_ring.json"), kRing);
    uint64_t dropped_before = droppedSpans();
    for (int i = 0; i < 1000; ++i) {
        ScopedSpan span("test.ring");
    }
    JsonValue doc = session.finish();
    size_t x_events = 0;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string == "X")
            ++x_events;
    }
    EXPECT_LE(x_events, kRing);
    EXPECT_GE(droppedSpans() - dropped_before, 1000 - kRing);
    EXPECT_GE(doc.at("otherData").at("droppedSpans").number,
              double(1000 - kRing));
}

TEST(Spans, ConcurrentSpansFromManyThreads)
{
    TraceSession session(tempPath("telemetry_threads.json"));
    constexpr int kThreads = 8;
    constexpr int kSpansPer = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            setThreadName("test.worker." + std::to_string(t));
            for (int i = 0; i < kSpansPer; ++i) {
                ScopedSpan span("test.concurrent", "i",
                                uint64_t(i));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    JsonValue doc = session.finish();
    size_t concurrent = 0;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string == "X" &&
            ev.at("name").string == "test.concurrent")
            ++concurrent;
    }
    EXPECT_EQ(concurrent, size_t(kThreads) * kSpansPer);
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

TEST(Lifecycle, ReinitStartsAFreshTrace)
{
    std::string path1 = tempPath("telemetry_first.json");
    std::string path2 = tempPath("telemetry_second.json");
    std::remove(path1.c_str());
    std::remove(path2.c_str());

    TelemetryOptions options;
    options.tracePath = path1;
    initTelemetry(options);
    {
        ScopedSpan span("test.first_only");
    }
    // Re-init: flushes trace 1, clears spans, arms trace 2.
    options.tracePath = path2;
    initTelemetry(options);
    {
        ScopedSpan span("test.second_only");
    }
    shutdownTelemetry();

    ASSERT_TRUE(fileExists(path1));
    ASSERT_TRUE(fileExists(path2));
    std::string second = slurp(path2);
    EXPECT_EQ(second.find("test.first_only"), std::string::npos);
    EXPECT_NE(second.find("test.second_only"), std::string::npos);
    std::remove(path1.c_str());
    std::remove(path2.c_str());
}

TEST(Lifecycle, ShutdownIsIdempotentAndConcurrent)
{
    std::string path = tempPath("telemetry_shutdown.json");
    TelemetryOptions options;
    options.tracePath = path;
    initTelemetry(options);
    {
        ScopedSpan span("test.shutdown");
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] { shutdownTelemetry(); });
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(tracingEnabled());
    EXPECT_TRUE(fileExists(path));
    std::remove(path.c_str());
}

TEST(Lifecycle, HeartbeatStartStopRaces)
{
    // Rapid init/shutdown cycles with a fast heartbeat: the worker
    // thread must start and join cleanly every time.
    for (int i = 0; i < 10; ++i) {
        TelemetryOptions options;
        options.heartbeatSeconds = 0.001;
        options.heartbeatTag = "test";
        initTelemetry(options);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        shutdownTelemetry();
    }
    SUCCEED();
}

TEST(Lifecycle, ResetMetricsForTesting)
{
    counter("test.reset_me").add(9);
    gauge("test.reset_gauge").set(5);
    histogram("test.reset_hist").record(1.0);
    resetMetricsForTesting();
    EXPECT_EQ(counter("test.reset_me").value(), 0u);
    EXPECT_EQ(gauge("test.reset_gauge").value(), 0);
    EXPECT_EQ(histogram("test.reset_hist").count(), 0u);
}

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

namespace
{

/** Every exposition line whose metric name starts with @p prefix, in
 *  emission order — the registry is shared across tests, so golden
 *  comparisons filter to the families a test itself registered. */
std::string
promLinesWithPrefix(const std::string &text, const std::string &prefix)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
        bool match = line.compare(0, prefix.size(), prefix) == 0;
        if (!match && line.compare(0, 2, "# ") == 0) {
            // "# HELP name ..." / "# TYPE name ..."
            size_t name_at = line.find(' ', 2);
            match = name_at != std::string::npos &&
                    line.compare(name_at + 1, prefix.size(),
                                 prefix) == 0;
        }
        if (match)
            out += line + "\n";
    }
    return out;
}

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

} // namespace

TEST(Prometheus, GoldenExpositionFormat)
{
    // Unique names so other tests' registrations cannot collide;
    // reset first so reruns in one process stay deterministic.
    resetMetricsForTesting();
    counter("promgold.requests").add(3);
    gauge("promgold.depth").set(2);
    gauge("promgold.depth").set(1);
    Histogram &h =
        histogram("promgold.latency_seconds{verb=replay}",
                  {0.5, 2.0});
    h.record(0.25);
    h.record(1.0);
    h.record(100.0);

    std::string text = renderPrometheus(snapshotMetrics());
    std::string got = promLinesWithPrefix(text, "archval_promgold_");
    // The full text-format contract in one golden block: name
    // mangling, _total counters, gauge + _max pairing, cumulative
    // buckets with +Inf, _sum/_count, label rendering.
    const std::string expected =
        "# HELP archval_promgold_depth archval metric "
        "promgold.depth\n"
        "# TYPE archval_promgold_depth gauge\n"
        "archval_promgold_depth 1\n"
        "# HELP archval_promgold_depth_max archval metric "
        "promgold.depth (running maximum)\n"
        "# TYPE archval_promgold_depth_max gauge\n"
        "archval_promgold_depth_max 2\n"
        "# HELP archval_promgold_latency_seconds archval metric "
        "promgold.latency_seconds\n"
        "# TYPE archval_promgold_latency_seconds histogram\n"
        "archval_promgold_latency_seconds_bucket{verb=\"replay\","
        "le=\"0.5\"} 1\n"
        "archval_promgold_latency_seconds_bucket{verb=\"replay\","
        "le=\"2\"} 2\n"
        "archval_promgold_latency_seconds_bucket{verb=\"replay\","
        "le=\"+Inf\"} 3\n"
        "archval_promgold_latency_seconds_sum{verb=\"replay\"} "
        "101.25\n"
        "archval_promgold_latency_seconds_count{verb=\"replay\"} "
        "3\n"
        "# HELP archval_promgold_requests_total archval metric "
        "promgold.requests\n"
        "# TYPE archval_promgold_requests_total counter\n"
        "archval_promgold_requests_total 3\n";
    EXPECT_EQ(got, expected);
}

TEST(Prometheus, LabeledVariantsShareOneFamilyHeader)
{
    resetMetricsForTesting();
    histogram("promfam.run_seconds{verb=a}", {1.0}).record(0.5);
    histogram("promfam.run_seconds{verb=b}", {1.0}).record(0.5);
    std::string text = renderPrometheus(snapshotMetrics());
    // HELP/TYPE once per family even with two label sets, and both
    // label sets emitted under it.
    EXPECT_EQ(countOccurrences(
                  text, "# TYPE archval_promfam_run_seconds "
                        "histogram"),
              1u);
    EXPECT_EQ(countOccurrences(
                  text, "# HELP archval_promfam_run_seconds "),
              1u);
    EXPECT_NE(text.find("archval_promfam_run_seconds_count"
                        "{verb=\"a\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("archval_promfam_run_seconds_count"
                        "{verb=\"b\"} 1"),
              std::string::npos);
}

TEST(Prometheus, SanitizesNamesAndEscapesLabelValues)
{
    resetMetricsForTesting();
    counter("promesc.odd-name.x").add(1);
    gauge("promesc.labeled{path=a\"b\\c}").set(4);
    std::string text = renderPrometheus(snapshotMetrics());
    EXPECT_NE(text.find("archval_promesc_odd_name_x_total 1"),
              std::string::npos);
    // Label values escape backslash and quote per the text format.
    EXPECT_NE(text.find("archval_promesc_labeled"
                        "{path=\"a\\\"b\\\\c\"} 4"),
              std::string::npos)
        << text;
}

TEST(Prometheus, SampleProcessMemoryFeedsRssGauges)
{
    sampleProcessMemory();
    std::string text = renderPrometheus(snapshotMetrics());
    EXPECT_NE(text.find("archval_process_rss_bytes "),
              std::string::npos);
    EXPECT_NE(text.find("archval_process_peak_rss_bytes "),
              std::string::npos);
    RegistrySnapshot snap = snapshotMetrics();
    bool found = false;
    for (const MetricSample &s : snap.samples) {
        if (s.name == "process.rss_bytes") {
            found = true;
            EXPECT_GT(s.gauge, 0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Prometheus, SnapshotCarriesHistogramBuckets)
{
    resetMetricsForTesting();
    Histogram &h = histogram("promsnap.hist", {1.0, 2.0});
    h.record(0.5);
    h.record(10.0);
    RegistrySnapshot snap = snapshotMetrics();
    for (const MetricSample &s : snap.samples) {
        if (s.name != "promsnap.hist")
            continue;
        ASSERT_EQ(s.bounds.size(), 2u);
        ASSERT_EQ(s.buckets.size(), 3u);
        EXPECT_EQ(s.buckets[0], 1u);
        EXPECT_EQ(s.buckets[1], 0u);
        EXPECT_EQ(s.buckets[2], 1u); // overflow
        return;
    }
    FAIL() << "promsnap.hist not in snapshot";
}

// ---------------------------------------------------------------------
// Job correlation
// ---------------------------------------------------------------------

TEST(JobCorrelation, ScopeNestsAndRestores)
{
    EXPECT_EQ(currentJobId(), 0u);
    {
        JobScope outer(7);
        EXPECT_EQ(currentJobId(), 7u);
        {
            JobScope inner(9);
            EXPECT_EQ(currentJobId(), 9u);
        }
        EXPECT_EQ(currentJobId(), 7u);
    }
    EXPECT_EQ(currentJobId(), 0u);
}

TEST(JobCorrelation, SpansCarryJobIdIntoTrace)
{
    TraceSession session(tempPath("telemetry_jobid.json"));
    {
        JobScope job(42);
        ScopedSpan span("test.jobspan", "k", 1);
    }
    {
        ScopedSpan span("test.nojob");
    }
    JsonValue doc = session.finish();
    bool with_job = false, without_job = false;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string != "X")
            continue;
        if (ev.at("name").string == "test.jobspan") {
            with_job = true;
            EXPECT_DOUBLE_EQ(ev.at("args").at("job").number, 42.0);
            EXPECT_DOUBLE_EQ(ev.at("args").at("k").number, 1.0);
        }
        if (ev.at("name").string == "test.nojob") {
            without_job = true;
            EXPECT_FALSE(ev.has("args"));
        }
    }
    EXPECT_TRUE(with_job);
    EXPECT_TRUE(without_job);
}

TEST(JobCorrelation, WorkerThreadsInheritInstalledScope)
{
    TraceSession session(tempPath("telemetry_jobworkers.json"));
    {
        JobScope job(5);
        const uint64_t id = currentJobId();
        std::thread worker([id] {
            JobScope scope(id);
            ScopedSpan span("test.worker_span");
        });
        worker.join();
    }
    JsonValue doc = session.finish();
    bool found = false;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string == "X" &&
            ev.at("name").string == "test.worker_span") {
            found = true;
            EXPECT_DOUBLE_EQ(ev.at("args").at("job").number, 5.0);
        }
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Heartbeat vs shutdown interleaving (TSan-audited)
// ---------------------------------------------------------------------

TEST(Lifecycle, HeartbeatShutdownVsConcurrentRecorders)
{
    // shutdownTelemetry during an in-flight heartbeat tick must not
    // race the final registry snapshot: recorders hammer the
    // registry and span rings while init/shutdown cycles with a
    // sub-millisecond heartbeat. Run under ARCHVAL_SANITIZE=thread
    // this is the regression test for the heartbeat/trace-export
    // interleaving.
    std::atomic<bool> stop{false};
    std::vector<std::thread> recorders;
    for (int t = 0; t < 4; ++t) {
        recorders.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                counter("test.hb_stress").add(1);
                histogram("test.hb_stress_hist").record(0.5);
                gauge("test.hb_stress_gauge").set(3);
                ScopedSpan span("test.hb_stress_span");
            }
        });
    }
    std::string path = tempPath("telemetry_hb_stress.json");
    for (int i = 0; i < 20; ++i) {
        TelemetryOptions options;
        options.heartbeatSeconds = 0.0005;
        options.heartbeatTag = "stress";
        options.tracePath = path;
        initTelemetry(options);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        shutdownTelemetry();
    }
    stop.store(true);
    for (auto &t : recorders)
        t.join();
    std::remove(path.c_str());
    SUCCEED();
}

} // namespace
} // namespace archval::telemetry
