/**
 * @file
 * Observability tests (ctest label `service`, TSan-clean): the
 * flight recorder's wait-free event ring and crash dumps (including
 * the SIGUSR1 path), the Prometheus HTTP endpoint's exposition and
 * malformed-request hardening, and the daemon's `stats` protocol
 * verb with live /metrics scrapes while jobs run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/daemon.hh"
#include "service/metrics_http.hh"
#include "service/protocol.hh"
#include "support/flight_recorder.hh"
#include "support/json.hh"
#include "support/telemetry.hh"

namespace archval
{
namespace
{

using service::Daemon;
using service::FrameReader;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/** RAII: recorder disarmed (and its ring ignored) when the test
 *  exits, whatever happened inside. */
struct RecorderSession
{
    explicit RecorderSession(flight::FlightRecorderOptions options)
    {
        flight::initFlightRecorder(options);
    }
    ~RecorderSession() { flight::shutdownFlightRecorder(); }
};

json::Value
parseDump(const std::string &text)
{
    Result<json::Value> parsed = json::parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.errorMessage() << "\n" << text;
    return parsed.ok() ? parsed.take() : json::Value::object();
}

std::vector<std::string>
crashFiles(const std::string &dir)
{
    std::vector<std::string> out;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.rfind("crash-", 0) == 0)
                out.push_back(dir + "/" + name);
        }
        ::closedir(d);
    }
    return out;
}

std::string
slurp(const std::string &path)
{
    std::string out;
    if (std::FILE *f = std::fopen(path.c_str(), "r")) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

/** Send raw bytes to a loopback TCP port and read until the server
 *  closes (the endpoint always answers Connection: close). */
std::string
httpExchange(int port, const std::string &request)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    if (!service::sendAll(fd, request.data(), request.size())) {
        ::close(fd);
        return {};
    }
    std::string response;
    char buf[16 * 1024];
    ssize_t n;
    while ((n = service::recvRetry(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendFrame(int fd, const json::Value &message)
{
    const std::string wire = service::encodeFrame(message);
    return service::sendAll(fd, wire.data(), wire.size());
}

bool
readEvent(int fd, FrameReader &reader, json::Value &event)
{
    std::string payload;
    char buf[64 * 1024];
    while (true) {
        FrameReader::Status status = reader.next(payload);
        if (status == FrameReader::Status::Ready) {
            Result<json::Value> parsed = json::parse(payload);
            if (!parsed.ok())
                return false;
            event = parsed.take();
            return true;
        }
        if (status == FrameReader::Status::Error)
            return false;
        ssize_t n = service::recvRetry(fd, buf, sizeof(buf));
        if (n <= 0)
            return false;
        reader.feed(buf, static_cast<size_t>(n));
    }
}

std::string
socketPath(const char *tag)
{
    return "/tmp/archval_obs_" + std::to_string(::getpid()) + tag +
           ".sock";
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, DisabledPathIsInertButDumpStillRenders)
{
    flight::shutdownFlightRecorder();
    ASSERT_FALSE(flight::flightRecorderEnabled());
    flight::recordEvent(flight::EventKind::JobStarted, 1, 2, "x");
    json::Value dump =
        parseDump(flight::dumpFlightRecorder("unit-test"));
    EXPECT_EQ(dump.get("reason").asString(), "unit-test");
    EXPECT_TRUE(dump.has("events"));
}

TEST(FlightRecorder, RecordsLifecycleEventsInOrder)
{
    flight::FlightRecorderOptions options;
    options.handleSigusr1 = false;
    options.handleTerminate = false;
    options.activeJobsJson = [] {
        return std::string("[{\"job\": 17}]");
    };
    RecorderSession session(options);
    ASSERT_TRUE(flight::flightRecorderEnabled());

    flight::recordEvent(flight::EventKind::JobAccepted, 9, 3,
                        "replay");
    flight::recordEvent(flight::EventKind::JobStarted, 9, 3,
                        "replay");
    flight::recordEvent(flight::EventKind::JobDone, 9, 0, "ok");

    json::Value dump = parseDump(flight::dumpFlightRecorder("test"));
    const auto &events = dump.get("events").items();
    ASSERT_GE(events.size(), 3u);
    const size_t n = events.size();
    EXPECT_EQ(events[n - 3].get("kind").asString(), "job_accepted");
    EXPECT_EQ(events[n - 3].get("a").asInt(), 9);
    EXPECT_EQ(events[n - 3].get("b").asInt(), 3);
    EXPECT_EQ(events[n - 3].get("detail").asString(), "replay");
    EXPECT_EQ(events[n - 2].get("kind").asString(), "job_started");
    EXPECT_EQ(events[n - 1].get("kind").asString(), "job_done");
    EXPECT_EQ(events[n - 1].get("detail").asString(), "ok");
    // Ring order is oldest-first.
    EXPECT_LE(events[n - 3].get("seq").asInt(),
              events[n - 1].get("seq").asInt());
    // Host callback and registry digest are embedded.
    ASSERT_EQ(dump.get("activeJobs").items().size(), 1u);
    EXPECT_EQ(
        dump.get("activeJobs").items()[0].get("job").asInt(), 17);
    EXPECT_TRUE(dump.has("metrics"));
}

TEST(FlightRecorder, RingWrapsOverwritingOldest)
{
    flight::FlightRecorderOptions options;
    options.handleSigusr1 = false;
    options.handleTerminate = false;
    RecorderSession session(options);
    const uint64_t dropped_before = flight::droppedFlightEvents();
    // The ring is process-wide (1024 slots by default); overrun it.
    for (uint64_t i = 0; i < 2000; ++i)
        flight::recordEvent(flight::EventKind::JobProgress, i, 0,
                            "tick");
    EXPECT_GE(flight::droppedFlightEvents() - dropped_before, 900u);
    json::Value dump = parseDump(flight::dumpFlightRecorder("wrap"));
    const auto &events = dump.get("events").items();
    ASSERT_FALSE(events.empty());
    EXPECT_LE(events.size(), 1024u);
    // The newest event survived the wrap.
    EXPECT_EQ(events.back().get("a").asInt(), 1999);
}

TEST(FlightRecorder, DetailTruncatesAt48BytesWithoutAllocation)
{
    flight::FlightRecorderOptions options;
    options.handleSigusr1 = false;
    options.handleTerminate = false;
    RecorderSession session(options);
    const std::string long_detail(100, 'x');
    flight::recordEvent(flight::EventKind::FrameError, 1, 0,
                        long_detail);
    json::Value dump =
        parseDump(flight::dumpFlightRecorder("trunc"));
    const auto &events = dump.get("events").items();
    ASSERT_FALSE(events.empty());
    const std::string detail =
        events.back().get("detail").asString();
    EXPECT_EQ(detail, std::string(48, 'x'));
}

TEST(FlightRecorder, ConcurrentWritersAndDumpersAreClean)
{
    flight::FlightRecorderOptions options;
    options.handleSigusr1 = false;
    options.handleTerminate = false;
    RecorderSession session(options);

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&stop, t] {
            uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                flight::recordEvent(
                    flight::EventKind::JobProgress,
                    static_cast<uint64_t>(t), i++, "hammer");
            }
        });
    }
    // Dump repeatedly while the ring churns: torn slots are allowed
    // (they appear with kind "torn"), structurally invalid JSON is
    // not.
    for (int i = 0; i < 50; ++i) {
        json::Value dump =
            parseDump(flight::dumpFlightRecorder("churn"));
        EXPECT_TRUE(dump.has("events"));
    }
    stop.store(true);
    for (auto &t : writers)
        t.join();
}

TEST(FlightRecorder, Sigusr1DumpsCrashFileNamingReason)
{
    const std::string dir = ::testing::TempDir() + "obs_crash";
    ::mkdir(dir.c_str(), 0777);
    for (const std::string &stale : crashFiles(dir))
        std::remove(stale.c_str());

    flight::FlightRecorderOptions options;
    options.crashDir = dir;
    options.handleTerminate = false;
    RecorderSession session(options);
    flight::recordEvent(flight::EventKind::JobStarted, 33, 1,
                        "enumerate");

    ASSERT_EQ(::raise(SIGUSR1), 0);
    // The handler only writes a pipe byte; the watcher thread does
    // the dump. Poll for the file.
    std::vector<std::string> files;
    for (int i = 0; i < 500 && files.empty(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        files = crashFiles(dir);
    }
    ASSERT_FALSE(files.empty()) << "no crash file after SIGUSR1";
    json::Value dump = parseDump(slurp(files[0]));
    EXPECT_EQ(dump.get("reason").asString(), "SIGUSR1");
    bool saw_job = false, saw_signal = false;
    for (const json::Value &ev : dump.get("events").items()) {
        if (ev.get("kind").asString() == "job_started" &&
            ev.get("a").asInt() == 33)
            saw_job = true;
        if (ev.get("kind").asString() == "signal")
            saw_signal = true;
    }
    EXPECT_TRUE(saw_job);
    EXPECT_TRUE(saw_signal);
    for (const std::string &file : files)
        std::remove(file.c_str());
}

TEST(FlightRecorder, DumpsWithinOneSecondKeepSeparateFiles)
{
    // Crash-file names carry seconds; back-to-back dumps (a burst of
    // SIGUSR1) must each keep their own file, not overwrite the
    // last.
    const std::string dir = ::testing::TempDir() + "obs_crash_burst";
    ::mkdir(dir.c_str(), 0777);
    for (const std::string &stale : crashFiles(dir))
        std::remove(stale.c_str());

    flight::FlightRecorderOptions options;
    options.crashDir = dir;
    options.handleTerminate = false;
    RecorderSession session(options);
    const std::string first = flight::dumpFlightRecorderToFile("first");
    const std::string second = flight::dumpFlightRecorderToFile("second");
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(second.empty());
    EXPECT_NE(first, second);
    EXPECT_EQ(crashFiles(dir).size(), 2u);
    EXPECT_EQ(parseDump(slurp(first)).get("reason").asString(), "first");
    EXPECT_EQ(parseDump(slurp(second)).get("reason").asString(),
              "second");
    for (const std::string &file : crashFiles(dir))
        std::remove(file.c_str());
}

// ---------------------------------------------------------------------
// Prometheus HTTP endpoint
// ---------------------------------------------------------------------

TEST(MetricsHttp, ServesRendererOutputOnGetMetrics)
{
    service::MetricsHttpServer server;
    ASSERT_EQ(server.start(0, [] {
        return std::string("# golden body\n");
    }),
              "");
    ASSERT_GT(server.port(), 0);
    std::string response = httpExchange(
        server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("# golden body\n"), std::string::npos);
    server.stop();
}

TEST(MetricsHttp, MalformedRequestsAre4xxNeverCrashes)
{
    service::MetricsHttpServer server;
    ASSERT_EQ(server.start(0, [] { return std::string("ok\n"); }),
              "");
    const int port = server.port();

    // Plain garbage.
    EXPECT_NE(httpExchange(port, "garbage\r\n\r\n")
                  .find("HTTP/1.1 400"),
              std::string::npos);
    // Binary noise (a length-prefixed frame, the likely accident).
    EXPECT_NE(httpExchange(
                  port, std::string("\x10\x00\x00\x00{\"v\":1}\r\n\r\n",
                                    16))
                  .find("HTTP/1.1 400"),
              std::string::npos);
    // Wrong method, wrong target.
    EXPECT_NE(httpExchange(
                  port, "POST /metrics HTTP/1.1\r\n\r\n")
                  .find("HTTP/1.1 405"),
              std::string::npos);
    EXPECT_NE(
        httpExchange(port, "GET /other HTTP/1.1\r\n\r\n")
            .find("HTTP/1.1 404"),
        std::string::npos);
    // A peer that connects and immediately hangs up.
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(port));
        ASSERT_EQ(::connect(fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ::close(fd);
    }
    // The server survived all of it.
    EXPECT_NE(httpExchange(port, "GET /metrics HTTP/1.1\r\n\r\n")
                  .find("HTTP/1.1 200"),
              std::string::npos);
    server.stop();
}

TEST(MetricsHttp, RendererExceptionIs500)
{
    service::MetricsHttpServer server;
    ASSERT_EQ(server.start(0, []() -> std::string {
        throw std::runtime_error("boom");
    }),
              "");
    std::string response = httpExchange(
        server.port(), "GET /metrics HTTP/1.1\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.1 500"), std::string::npos);
    server.stop();
}

TEST(MetricsHttp, ConcurrentScrapesDuringRegistryChurn)
{
    service::MetricsHttpServer server;
    ASSERT_EQ(server.start(0, [] {
        return telemetry::renderPrometheus(
            telemetry::snapshotMetrics());
    }),
              "");
    const int port = server.port();

    // Register up front so the very first scrape already sees the
    // family; the mutators then only bump values.
    telemetry::counter("obs.scrape_churn").add(1);

    std::atomic<bool> stop{false};
    std::vector<std::thread> mutators;
    for (int t = 0; t < 2; ++t) {
        mutators.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                telemetry::counter("obs.scrape_churn").add(1);
                telemetry::histogram("obs.scrape_hist{verb=x}")
                    .record(0.01);
            }
        });
    }
    for (int i = 0; i < 20; ++i) {
        std::string response = httpExchange(
            port, "GET /metrics HTTP/1.1\r\n\r\n");
        EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
        EXPECT_NE(response.find("archval_obs_scrape_churn_total"),
                  std::string::npos);
    }
    stop.store(true);
    for (auto &t : mutators)
        t.join();
    server.stop();
}

// ---------------------------------------------------------------------
// Daemon: stats verb + live /metrics
// ---------------------------------------------------------------------

TEST(DaemonStats, StatsVerbAndMetricsEndpointWhileJobsRun)
{
    telemetry::resetMetricsForTesting();
    const std::string path = socketPath("stats");
    Daemon::Options options;
    options.unixPath = path;
    options.workers = 1;
    options.metricsPort = 0; // ephemeral
    Daemon daemon(options);
    ASSERT_EQ(daemon.start(), "");
    ASSERT_GT(daemon.metricsPort(), 0);

    // Scrape while a replay job runs: every response a full 200.
    std::atomic<bool> job_done{false};
    std::thread scraper([&] {
        while (!job_done.load(std::memory_order_relaxed)) {
            std::string response = httpExchange(
                daemon.metricsPort(),
                "GET /metrics HTTP/1.1\r\n\r\n");
            EXPECT_NE(response.find("HTTP/1.1 200"),
                      std::string::npos);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    });

    int fd = connectUnix(path);
    ASSERT_GE(fd, 0);
    json::Value request = json::Value::object();
    request.set("verb", "replay");
    FrameReader reader;
    json::Value event;
    ASSERT_TRUE(sendFrame(fd, request));
    std::string verdict;
    while (readEvent(fd, reader, event)) {
        if (event.get("type").asString() == "result") {
            verdict = event.get("verdict").asString();
            break;
        }
        ASSERT_NE(event.get("type").asString(), "error")
            << event.get("message").asString();
    }
    job_done.store(true);
    scraper.join();
    EXPECT_EQ(verdict, "ok");

    // The stats verb over the same connection.
    json::Value stats_req = json::Value::object();
    stats_req.set("verb", "stats");
    ASSERT_TRUE(sendFrame(fd, stats_req));
    ASSERT_TRUE(readEvent(fd, reader, event));
    EXPECT_EQ(event.get("type").asString(), "stats");
    EXPECT_GT(event.get("uptimeSeconds").asDouble(), 0.0);
    EXPECT_TRUE(event.has("build"));
    EXPECT_EQ(event.get("queue").get("queued").asInt(-1), 0);
    EXPECT_GE(event.get("queue").get("bound").asInt(), 1);
    EXPECT_EQ(event.get("sessions").get("sessions").asInt(-1), 1);
    EXPECT_GT(event.get("process").get("rssBytes").asInt(), 0);
    const json::Value &metrics = event.get("metrics");
    EXPECT_GE(metrics
                  .get("service.job_run_seconds{verb=replay}.count")
                  .asInt(),
              1);
    EXPECT_GE(
        metrics
            .get("service.job_queue_wait_seconds{verb=replay}"
                 ".count")
            .asInt(),
        1);
    ::close(fd);

    // After the job: the queue-split histograms are in /metrics.
    std::string exposition = httpExchange(
        daemon.metricsPort(), "GET /metrics HTTP/1.1\r\n\r\n");
    EXPECT_NE(exposition.find("archval_service_job_run_seconds_"
                              "bucket{verb=\"replay\",le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(
        exposition.find(
            "archval_service_job_queue_wait_seconds_count"
            "{verb=\"replay\"}"),
        std::string::npos);
    EXPECT_NE(exposition.find("archval_service_queue_depth "),
              std::string::npos);
    EXPECT_NE(exposition.find("archval_process_rss_bytes "),
              std::string::npos);

    daemon.stop();
    daemon.wait();
    std::remove(path.c_str());
}

TEST(DaemonStats, MetricsPortDisabledByDefault)
{
    const std::string path = socketPath("noport");
    Daemon::Options options;
    options.unixPath = path;
    Daemon daemon(options);
    ASSERT_EQ(daemon.start(), "");
    EXPECT_EQ(daemon.metricsPort(), -1);
    // stats still answers without the HTTP endpoint.
    int fd = connectUnix(path);
    ASSERT_GE(fd, 0);
    json::Value stats_req = json::Value::object();
    stats_req.set("verb", "stats");
    ASSERT_TRUE(sendFrame(fd, stats_req));
    FrameReader reader;
    json::Value event;
    ASSERT_TRUE(readEvent(fd, reader, event));
    EXPECT_EQ(event.get("type").asString(), "stats");
    ::close(fd);
    daemon.stop();
    daemon.wait();
    std::remove(path.c_str());
}

} // namespace
} // namespace archval
