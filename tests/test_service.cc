/**
 * @file
 * Service-layer tests (ctest label `service`): protocol framing,
 * the warm-vs-cold replay differential, JobManager lifecycle
 * (streaming, cancellation, error containment) and a real
 * unix-socket daemon with concurrent clients. The whole file must
 * stay TSan-clean — it is part of the ARCHVAL_SANITIZE=thread build.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <algorithm>
#include <csignal>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"
#include "service/daemon.hh"
#include "service/job_manager.hh"
#include "service/protocol.hh"
#include "service/session_cache.hh"
#include "support/record_file.hh"
#include "support/status.hh"

using namespace archval;
using namespace archval::service;

// ---------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------

TEST(Framing, RoundTripSingleAndBack2Back)
{
    json::Value a = json::Value::object();
    a.set("verb", "ping");
    json::Value b = json::Value::object();
    b.set("verb", "list");
    b.set("n", static_cast<int64_t>(42));

    std::string wire = encodeFrame(a) + encodeFrame(b);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());

    std::string payload;
    ASSERT_EQ(reader.next(payload), FrameReader::Status::Ready);
    EXPECT_EQ(payload, a.serialize());
    ASSERT_EQ(reader.next(payload), FrameReader::Status::Ready);
    EXPECT_EQ(payload, b.serialize());
    EXPECT_EQ(reader.next(payload), FrameReader::Status::NeedMore);
    EXPECT_FALSE(reader.failed());
}

TEST(Framing, TruncatedInputIsNeedMoreByteByByte)
{
    json::Value msg = json::Value::object();
    msg.set("verb", "status");
    msg.set("job", static_cast<int64_t>(7));
    const std::string wire = encodeFrame(msg);

    FrameReader reader;
    std::string payload;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(wire.data() + i, 1);
        ASSERT_EQ(reader.next(payload),
                  FrameReader::Status::NeedMore)
            << "after byte " << i;
    }
    reader.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(reader.next(payload), FrameReader::Status::Ready);
    EXPECT_EQ(payload, msg.serialize());
}

TEST(Framing, OversizedLengthIsStickyError)
{
    // 0xFFFFFFFF little-endian length prefix: larger than any
    // allowed frame.
    const unsigned char bad[] = {0xff, 0xff, 0xff, 0xff, 'x'};
    FrameReader reader;
    reader.feed(bad, sizeof(bad));
    std::string payload;
    EXPECT_EQ(reader.next(payload), FrameReader::Status::Error);
    EXPECT_TRUE(reader.failed());
    EXPECT_FALSE(reader.error().empty());

    // Sticky: feeding good bytes afterwards cannot resynchronize.
    json::Value msg = json::Value::object();
    msg.set("verb", "ping");
    const std::string good = encodeFrame(msg);
    reader.feed(good.data(), good.size());
    EXPECT_EQ(reader.next(payload), FrameReader::Status::Error);
}

TEST(Framing, ZeroLengthIsError)
{
    const unsigned char bad[] = {0, 0, 0, 0};
    FrameReader reader;
    reader.feed(bad, sizeof(bad));
    std::string payload;
    EXPECT_EQ(reader.next(payload), FrameReader::Status::Error);
}

TEST(Framing, EncodeRejectsUnsendablePayloads)
{
    EXPECT_THROW(encodeFrame(std::string()), FatalError);
    EXPECT_THROW(encodeFrame(std::string(kMaxFrameBytes + 1, 'x')),
                 FatalError);
    // Exactly at the cap is legal and round-trips.
    const std::string frame =
        encodeFrame(std::string(1024, 'y'));
    FrameReader reader;
    reader.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_EQ(reader.next(payload), FrameReader::Status::Ready);
    EXPECT_EQ(payload.size(), 1024u);
}

// ---------------------------------------------------------------
// EINTR safety of the shared socket helpers
// ---------------------------------------------------------------

namespace
{

std::atomic<int> g_signal_count{0};

void
countSignal(int)
{
    g_signal_count.fetch_add(1, std::memory_order_relaxed);
}

/** Install a SIGUSR1 handler *without* SA_RESTART for the test's
 *  scope, so blocking send()/recv() calls genuinely return EINTR
 *  instead of the kernel restarting them — the exact environment
 *  that used to drop event frames mid-transfer. */
struct SignalGuard
{
    struct sigaction old {};

    SignalGuard()
    {
        struct sigaction sa {};
        sa.sa_handler = countSignal;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0; // deliberately no SA_RESTART
        EXPECT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);
        g_signal_count.store(0, std::memory_order_relaxed);
    }

    ~SignalGuard() { ::sigaction(SIGUSR1, &old, nullptr); }
};

} // namespace

TEST(EintrSafety, SendAllDeliversEveryFrameUnderSignalFire)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Shrink the send buffer so the sender spends most of its time
    // blocked inside send(), where the signals land.
    int sndbuf = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                 sizeof(sndbuf));
    SignalGuard guard;

    json::Value msg = json::Value::object();
    msg.set("type", "progress");
    msg.set("pad", std::string(16 * 1024, 'x'));
    const std::string wire = encodeFrame(msg);
    constexpr int kFrames = 48;

    std::atomic<bool> send_ok{true};
    std::atomic<bool> sending{true};
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::thread sender([&] {
        for (int i = 0; i < kFrames && send_ok.load(); ++i) {
            if (!sendAll(fds[0], wire.data(), wire.size()))
                send_ok.store(false);
        }
        ::shutdown(fds[0], SHUT_WR);
        sending.store(false);
        released.wait(); // stay alive while the signaler may fire
    });
    pthread_t target = sender.native_handle();
    std::thread signaler([&] {
        while (sending.load()) {
            ::pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        }
    });

    // Start draining only once a signal has landed. Until then the
    // sender sits blocked in send() on its full buffer, so the first
    // signals interrupt a transfer in flight instead of racing its
    // end. The deadline only keeps a broken signaler from hanging the
    // suite; the count is still asserted below.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (g_signal_count.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    // Drain in small chunks; every byte of every frame must arrive
    // in order, however many signals interrupted the transfer.
    FrameReader reader;
    std::string payload;
    size_t frames = 0;
    char buf[2048];
    while (true) {
        ssize_t n = recvRetry(fds[1], buf, sizeof(buf));
        ASSERT_GE(n, 0);
        if (n == 0)
            break;
        reader.feed(buf, static_cast<size_t>(n));
        while (reader.next(payload) == FrameReader::Status::Ready)
            ++frames;
        ASSERT_FALSE(reader.failed()) << reader.error();
    }
    signaler.join();
    release.set_value();
    sender.join();
    ::close(fds[0]);
    ::close(fds[1]);

    EXPECT_TRUE(send_ok.load());
    EXPECT_EQ(frames, static_cast<size_t>(kFrames));
    EXPECT_GT(g_signal_count.load(), 0);
}

TEST(EintrSafety, RecvRetryDeliversEveryFrameUnderSignalFire)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    SignalGuard guard;

    json::Value msg = json::Value::object();
    msg.set("type", "metrics");
    msg.set("pad", std::string(4 * 1024, 'y'));
    const std::string wire = encodeFrame(msg);
    constexpr int kFrames = 16;

    std::atomic<bool> recv_ok{true};
    std::atomic<bool> receiving{true};
    std::atomic<size_t> frames{0};
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::thread receiver([&] {
        FrameReader reader;
        std::string payload;
        char buf[1024];
        while (true) {
            ssize_t n = recvRetry(fds[1], buf, sizeof(buf));
            if (n < 0) {
                recv_ok.store(false);
                break;
            }
            if (n == 0)
                break;
            reader.feed(buf, static_cast<size_t>(n));
            while (reader.next(payload) ==
                   FrameReader::Status::Ready)
                frames.fetch_add(1);
            if (reader.failed()) {
                recv_ok.store(false);
                break;
            }
        }
        receiving.store(false);
        released.wait();
    });
    pthread_t target = receiver.native_handle();
    std::thread signaler([&] {
        while (receiving.load()) {
            ::pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        }
    });

    // Trickle the bytes so the receiver keeps re-entering a blocking
    // recv() between chunks.
    for (int i = 0; i < kFrames; ++i) {
        size_t off = 0;
        while (off < wire.size()) {
            const size_t chunk = std::min<size_t>(512,
                                                  wire.size() - off);
            ASSERT_EQ(::send(fds[0], wire.data() + off, chunk,
                             MSG_NOSIGNAL),
                      static_cast<ssize_t>(chunk));
            off += chunk;
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    }
    ::shutdown(fds[0], SHUT_WR);
    signaler.join();
    release.set_value();
    receiver.join();
    ::close(fds[0]);
    ::close(fds[1]);

    EXPECT_TRUE(recv_ok.load());
    EXPECT_EQ(frames.load(), static_cast<size_t>(kFrames));
    EXPECT_GT(g_signal_count.load(), 0);
}

// ---------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------

TEST(JobRequestParse, VerbsAndBugs)
{
    json::Value msg = json::Value::object();
    msg.set("verb", "replay");
    json::Value bugs = json::Value::array();
    bugs.push(json::Value("bug1"));
    bugs.push(json::Value(static_cast<int64_t>(3)));
    msg.set("bugs", std::move(bugs));
    Result<JobRequest> parsed = JobRequest::fromJson(msg);
    ASSERT_TRUE(parsed.ok()) << parsed.errorMessage();
    EXPECT_TRUE(parsed.value().bugs.test(0));
    EXPECT_TRUE(parsed.value().bugs.test(3));
    EXPECT_EQ(parsed.value().bugs.count(), 2u);

    msg.set("verb", "frobnicate");
    EXPECT_FALSE(JobRequest::fromJson(msg).ok());

    msg.set("verb", "replay");
    json::Value bad = json::Value::array();
    bad.push(json::Value("bug9"));
    msg.set("bugs", std::move(bad));
    EXPECT_FALSE(JobRequest::fromJson(msg).ok());
}

TEST(DesignSpecParse, FingerprintSeparatesGenerationKnobs)
{
    DesignSpec a;
    DesignSpec b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.vectorSeed = 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());

    DesignSpec bogus;
    bogus.preset = "gigantic";
    EXPECT_THROW(bogus.toConfig(), FatalError);
}

TEST(DesignSpecParse, WrongTypedFieldsAreBadRequests)
{
    auto parse = [](const char *text) {
        Result<json::Value> value = json::parse(text);
        EXPECT_TRUE(value.ok()) << text;
        return DesignSpec::fromJson(value.value());
    };

    // The historical bug: `500000.0` is a JSON double, so the old
    // asInt()-with-fallback parse silently ran with the *default*
    // maxStates — a different fingerprint, different results, and no
    // indication to the client. It must be a bad request instead.
    Result<DesignSpec> dbl = parse("{\"maxStates\": 500000.0}");
    ASSERT_FALSE(dbl.ok());
    EXPECT_NE(dbl.errorMessage().find("bad request"),
              std::string::npos);
    EXPECT_NE(dbl.errorMessage().find("maxStates"),
              std::string::npos);

    EXPECT_FALSE(parse("{\"maxStates\": \"lots\"}").ok());
    EXPECT_FALSE(parse("{\"lineWords\": -2}").ok());
    EXPECT_FALSE(parse("{\"modelBranches\": 1}").ok()); // bool field
    EXPECT_FALSE(parse("{\"preset\": 3}").ok());
    EXPECT_FALSE(parse("[1, 2]").ok()); // design must be an object

    // A value its field cannot hold: a line width beyond what the
    // control's 8-bit refill counters count (PpConfig::maxLineWords),
    // or one that used to wrap to 0 in the fingerprint.
    Result<DesignSpec> wide = parse("{\"lineWords\": 256}");
    ASSERT_FALSE(wide.ok());
    EXPECT_NE(wide.errorMessage().find("bad request"), std::string::npos);
    EXPECT_FALSE(parse("{\"lineWords\": 4294967296}").ok());
    Result<DesignSpec> edge = parse("{\"lineWords\": 255}");
    ASSERT_TRUE(edge.ok()) << edge.errorMessage();
    EXPECT_EQ(edge.value().lineWords, 255u);

    // The retired enumeration worker count is ignored like any
    // unknown field, whatever its value.
    Result<DesignSpec> retired = parse("{\"enumThreads\": 50000}");
    ASSERT_TRUE(retired.ok()) << retired.errorMessage();
    EXPECT_EQ(retired.value().fingerprint(), DesignSpec{}.fingerprint());

    // Correctly typed fields still parse, absent ones keep defaults.
    Result<DesignSpec> good =
        parse("{\"maxStates\": 250000, \"dualIssue\": true}");
    ASSERT_TRUE(good.ok()) << good.errorMessage();
    EXPECT_EQ(good.value().maxStates, 250'000u);
    EXPECT_EQ(good.value().dualIssue, 1);
    EXPECT_EQ(good.value().preset, "small");
}

TEST(JobRequestParse, WrongTypedJobFieldsAreBadRequests)
{
    auto parse = [](const char *text) {
        Result<json::Value> value = json::parse(text);
        EXPECT_TRUE(value.ok()) << text;
        return JobRequest::fromJson(value.value());
    };

    EXPECT_FALSE(
        parse("{\"verb\": \"replay\", \"threads\": 2.5}").ok());
    EXPECT_FALSE(
        parse("{\"verb\": \"replay\", \"seed\": \"one\"}").ok());
    EXPECT_FALSE(
        parse("{\"verb\": \"fuzz\", \"rounds\": true}").ok());

    // Counts the daemon cannot honour: thread counts past the cap,
    // and values that used to wrap in the unsigned fields (threads
    // 2^32 + 1 ran 1 worker, rounds 2^32 ran 0 rounds).
    for (const char *text :
         {"{\"verb\": \"fuzz\", \"threads\": 100000}",
          "{\"verb\": \"replay\", \"threads\": 257}",
          "{\"verb\": \"replay\", \"threads\": 4294967297}",
          "{\"verb\": \"fuzz\", \"rounds\": 4294967296}"}) {
        Result<JobRequest> over = parse(text);
        ASSERT_FALSE(over.ok()) << text;
        EXPECT_NE(over.errorMessage().find("bad request"),
                  std::string::npos)
            << text;
    }

    // A wrong-typed *design* field surfaces through the same path.
    Result<JobRequest> nested = parse(
        "{\"verb\": \"replay\", \"design\": {\"maxStates\": 1.5}}");
    ASSERT_FALSE(nested.ok());
    EXPECT_NE(nested.errorMessage().find("maxStates"),
              std::string::npos);

    Result<JobRequest> good =
        parse("{\"verb\": \"replay\", \"threads\": 4}");
    ASSERT_TRUE(good.ok()) << good.errorMessage();
    EXPECT_EQ(good.value().threads, 4u);

    Result<JobRequest> edge = parse(
        "{\"verb\": \"fuzz\", \"threads\": 256, "
        "\"rounds\": 4294967295}");
    ASSERT_TRUE(edge.ok()) << edge.errorMessage();
    EXPECT_EQ(edge.value().threads, kMaxRequestThreads);
    EXPECT_EQ(edge.value().maxRounds, 4294967295u);
    Result<JobRequest> zero =
        parse("{\"verb\": \"replay\", \"threads\": 0}");
    ASSERT_TRUE(zero.ok()) << zero.errorMessage();
    EXPECT_EQ(zero.value().threads, 1u); // clamped, as before
}

// ---------------------------------------------------------------
// Warm-vs-cold differential
// ---------------------------------------------------------------

namespace
{

void
expectSamePlay(const harness::PlayResult &x,
               const harness::PlayResult &y, const char *what)
{
    EXPECT_EQ(x.diverged, y.diverged) << what;
    EXPECT_EQ(x.diff, y.diff) << what;
    EXPECT_EQ(x.cycles, y.cycles) << what;
    EXPECT_EQ(x.instructions, y.instructions) << what;
    EXPECT_EQ(x.lockstepErrors, y.lockstepErrors) << what;
    EXPECT_EQ(x.drained, y.drained) << what;
    EXPECT_EQ(x.skipped, y.skipped) << what;
}

/** The small-preset design split into 12 traces of at most 10,000
 *  instructions: the warm tests' many-row input, beside the service
 *  default's one trace. */
DesignSpec
manyTraceDesign()
{
    DesignSpec spec;
    spec.maxInstructionsPerTrace = 10'000;
    return spec;
}

constexpr size_t kManyTraces = 12;

/** The warm-vs-cold differential on @p spec's session. */
void
expectWarmRunByteIdentical(const DesignSpec &spec)
{
    SCOPED_TRACE(spec.fingerprint());
    Session session(spec);
    ASSERT_EQ(session.ensure(Session::Stage::Vectors, nullptr), "");
    const auto &traces = session.vectors();
    ASSERT_EQ(traces.size(),
              spec.maxInstructionsPerTrace ? kManyTraces : 1u);
    harness::WarmRows &rows = *session.warmRows();
    ASSERT_EQ(rows.size(), traces.size());

    rtl::BugSet bug;
    bug.set(static_cast<size_t>(rtl::BugId::Bug4FixupLost));
    std::vector<rtl::BugSet> bug_sets{rtl::BugSet{}, bug};

    harness::ReplayOptions options;
    options.numThreads = 2;
    options.checkpointStride = 128;

    // Cold: fills the session's warm rows.
    harness::ReplayEngine cold(session.config(), options);
    auto cold_plays = cold.playAll(traces, bug_sets, nullptr, &rows);
    const harness::ReplayStats cold_stats = cold.stats();
    EXPECT_EQ(cold_stats.warmHits, 0u);
    EXPECT_EQ(cold_stats.warmInserts, traces.size());

    // Warm: a second engine on the same rows (a repeat service
    // request) must produce byte-identical results while simulating
    // at most 10% of the cold run's cycles.
    harness::ReplayEngine warmed(session.config(), options);
    auto warm_plays = warmed.playAll(traces, bug_sets, nullptr, &rows);
    const harness::ReplayStats warm_stats = warmed.stats();
    EXPECT_EQ(warm_stats.warmHits, traces.size());
    EXPECT_GE(warm_stats.warmCopies, traces.size());

    ASSERT_EQ(cold_plays.size(), warm_plays.size());
    for (size_t i = 0; i < cold_plays.size(); ++i)
        expectSamePlay(cold_plays[i], warm_plays[i], "warm vs cold");

    // The whole bug-free donor block is avoided on the warm repeat
    // (the bug block may still simulate when the bug triggers before
    // the first pin, so the bound for this two-block batch is one
    // half).
    EXPECT_LE(warm_stats.simulatedCycles * 2,
              cold_stats.simulatedCycles)
        << "warm=" << warm_stats.simulatedCycles
        << " cold=" << cold_stats.simulatedCycles;

    // The acceptance bar — a repeat of the plain replay job (no bug
    // block) simulates >= 90% fewer cycles than its cold run; here
    // it is a pure donor-result copy, so zero.
    harness::ReplayEngine repeat(session.config(), options);
    auto repeat_plays = repeat.playAll(
        traces, std::vector<rtl::BugSet>{rtl::BugSet{}}, nullptr, &rows);
    const harness::ReplayStats repeat_stats = repeat.stats();
    EXPECT_EQ(repeat_stats.warmHits, traces.size());
    EXPECT_LE(repeat_stats.simulatedCycles * 10,
              cold_stats.simulatedCycles)
        << "repeat=" << repeat_stats.simulatedCycles
        << " cold=" << cold_stats.simulatedCycles;
    for (size_t t = 0; t < traces.size(); ++t)
        expectSamePlay(cold_plays[t], repeat_plays[t],
                       "repeat vs cold donor block");

    // And both agree with the plain sequential player.
    harness::VectorPlayer player(session.config());
    for (size_t b = 0; b < bug_sets.size(); ++b) {
        for (size_t t = 0; t < traces.size(); ++t) {
            harness::PlayResult seq =
                player.play(traces[t], bug_sets[b]);
            expectSamePlay(seq,
                           warm_plays[b * traces.size() + t],
                           "warm vs sequential");
        }
    }
}

} // namespace

TEST(WarmReplay, WarmRunIsByteIdenticalToColdAndSequential)
{
    expectWarmRunByteIdentical(DesignSpec{}); // small preset, one trace
    expectWarmRunByteIdentical(manyTraceDesign());
}

// ---------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------

namespace
{

/** Thread-safe event collector with terminal-event waiting. */
class Collector
{
  public:
    EventSink sink()
    {
        return [this](const json::Value &event) {
            std::lock_guard<std::mutex> lock(mutex_);
            events_.push_back(event);
            cv_.notify_all();
        };
    }

    /** Block until the job sees result/error/cancelled. */
    json::Value waitTerminal()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return findTerminal() >= 0; });
        return events_[static_cast<size_t>(findTerminal())];
    }

    std::vector<json::Value> events() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return events_;
    }

  private:
    int findTerminal() const
    {
        for (size_t i = 0; i < events_.size(); ++i) {
            const std::string &type =
                events_[i].get("type").asString();
            if (type == "result" || type == "error" ||
                type == "cancelled")
                return static_cast<int>(i);
        }
        return -1;
    }

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    std::vector<json::Value> events_;
};

JobRequest
makeRequest(const std::string &verb, const DesignSpec &design)
{
    JobRequest request;
    request.verb = verb;
    request.design = design;
    request.threads = 2;
    return request;
}

JobRequest
makeRequest(const std::string &verb, uint64_t vector_seed = 1)
{
    DesignSpec design;
    design.vectorSeed = vector_seed;
    return makeRequest(verb, design);
}

/** Enumerate, then replay cold and warm, through a JobManager on
 *  @p design's session. */
void
expectEnumerateThenWarmReplayHits(const DesignSpec &design)
{
    SCOPED_TRACE(design.fingerprint());
    SessionCache sessions;
    JobManager manager(sessions, 2);

    Collector enum_events;
    manager.submit(makeRequest("enumerate", design), enum_events.sink());
    json::Value enum_result = enum_events.waitTerminal();
    ASSERT_EQ(enum_result.get("type").asString(), "result");
    EXPECT_GT(enum_result.get("states").asInt(), 0);

    Collector cold_events;
    manager.submit(makeRequest("replay", design), cold_events.sink());
    json::Value cold = cold_events.waitTerminal();
    ASSERT_EQ(cold.get("type").asString(), "result");
    EXPECT_EQ(cold.get("verdict").asString(), "ok");
    EXPECT_EQ(cold.get("traces").asInt(),
              design.maxInstructionsPerTrace ? int64_t{kManyTraces} : 1);
    EXPECT_EQ(cold.get("warm").get("hits").asInt(), 0);
    EXPECT_EQ(cold.get("warm").get("inserts").asInt(),
              cold.get("traces").asInt());
    EXPECT_GT(cold.get("simulatedCycles").asInt(), 0);

    Collector warm_events;
    manager.submit(makeRequest("replay", design), warm_events.sink());
    json::Value warm = warm_events.waitTerminal();
    ASSERT_EQ(warm.get("type").asString(), "result");
    // The repeat request hits the session's warm rows on every trace
    // and re-simulates at most 10% of the cold run.
    EXPECT_EQ(warm.get("warm").get("lookups").asInt(),
              warm.get("traces").asInt());
    EXPECT_EQ(warm.get("warm").get("hits").asInt(),
              warm.get("traces").asInt());
    EXPECT_EQ(warm.get("warm").get("inserts").asInt(), 0);
    EXPECT_LE(warm.get("simulatedCycles").asInt() * 10,
              cold.get("simulatedCycles").asInt());

    // Byte-identical per-trace results across requests.
    EXPECT_EQ(warm.get("plays").serialize(),
              cold.get("plays").serialize());

    // Both replay jobs found the session the enumerate job created.
    EXPECT_GE(sessions.stats().hits, 2u);
    EXPECT_EQ(sessions.stats().sessions, 1u);
}

} // namespace

TEST(JobManager, EnumerateThenWarmReplayReportsCacheHits)
{
    expectEnumerateThenWarmReplayHits(DesignSpec{});
    expectEnumerateThenWarmReplayHits(manyTraceDesign());
}

TEST(JobManager, BadRequestsAreErrorsNotCrashes)
{
    SessionCache sessions;
    JobManager manager(sessions, 1);

    JobRequest bogus = makeRequest("replay");
    bogus.design.preset = "gigantic";
    Collector events;
    uint64_t id = manager.submit(bogus, events.sink());
    json::Value terminal = events.waitTerminal();
    EXPECT_EQ(terminal.get("type").asString(), "error");
    EXPECT_NE(terminal.get("message").asString().find("preset"),
              std::string::npos);

    auto info = manager.status(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, "failed");

    // The manager is still alive and serves the next job.
    Collector ok_events;
    manager.submit(makeRequest("enumerate"), ok_events.sink());
    EXPECT_EQ(ok_events.waitTerminal().get("type").asString(),
              "result");
}

TEST(JobManager, CancelQueuedAndMidJob)
{
    SessionCache sessions;
    JobManager manager(sessions, 1); // single worker: determinism

    // Queued cancellation: hold the single worker inside job A's
    // `started` emit until B has been cancelled, so B is provably
    // still queued — it must terminate with `cancelled` and never
    // emit `started`.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    Collector a_events;
    EventSink a_sink = [inner = a_events.sink(),
                        released](const json::Value &event) {
        inner(event);
        if (event.get("type").asString() == "started")
            released.wait();
    };
    manager.submit(makeRequest("enumerate", 101), a_sink);
    Collector b_events;
    uint64_t b = manager.submit(makeRequest("enumerate", 102),
                                b_events.sink());
    EXPECT_TRUE(manager.cancel(b));
    release.set_value();
    json::Value b_terminal = b_events.waitTerminal();
    EXPECT_EQ(b_terminal.get("type").asString(), "cancelled");
    for (const json::Value &event : b_events.events())
        EXPECT_NE(event.get("type").asString(), "started");
    ASSERT_EQ(a_events.waitTerminal().get("type").asString(),
              "result");
    EXPECT_FALSE(manager.cancel(b)); // already terminal

    // Mid-job cancellation, deterministically: the sink cancels the
    // job the moment its session-build progress event appears, so
    // the enumeration stage observes the flag via its cancel hook.
    std::shared_ptr<Collector> collector =
        std::make_shared<Collector>();
    JobManager *mgr = &manager;
    EventSink cancelling_sink =
        [collector, mgr](const json::Value &event) {
            collector->sink()(event);
            if (event.get("type").asString() == "progress" &&
                event.get("phase").asString() == "session")
                mgr->cancel(static_cast<uint64_t>(
                    event.get("job").asInt()));
        };
    uint64_t c = manager.submit(makeRequest("enumerate", 103),
                                cancelling_sink);
    json::Value c_terminal = collector->waitTerminal();
    EXPECT_EQ(c_terminal.get("type").asString(), "cancelled");
    auto info = manager.status(c);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, "cancelled");
}

// ---------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------

TEST(JobManager, QueueBoundRejectsWithExplicitBusyFrame)
{
    SessionCache sessions;
    JobManager manager(sessions, 1, /*queue_bound=*/1);

    // Park the single worker inside job A so the queue state below
    // is deterministic.
    std::promise<void> a_started;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    Collector a_events;
    EventSink a_sink = [inner = a_events.sink(), &a_started,
                        released](const json::Value &event) {
        inner(event);
        if (event.get("type").asString() == "started") {
            a_started.set_value();
            released.wait();
        }
    };
    manager.submit(makeRequest("enumerate", 301), a_sink);
    a_started.get_future().wait(); // A runs; the queue is empty

    Collector b_events;
    manager.submit(makeRequest("enumerate", 301), b_events.sink());

    // B fills the bound: C must be rejected immediately with an
    // explicit busy error frame, not silently queued or dropped.
    Collector c_events;
    uint64_t c = manager.submit(makeRequest("enumerate", 301),
                                c_events.sink());
    json::Value rejected = c_events.waitTerminal();
    EXPECT_EQ(rejected.get("type").asString(), "error");
    EXPECT_TRUE(rejected.get("busy").asBool());
    EXPECT_NE(rejected.get("message").asString().find("busy"),
              std::string::npos);
    auto info = manager.status(c);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, "rejected");
    EXPECT_FALSE(manager.cancel(c)); // already terminal

    release.set_value();
    EXPECT_EQ(b_events.waitTerminal().get("type").asString(),
              "result");
    EXPECT_EQ(a_events.waitTerminal().get("type").asString(),
              "result");

    // The rejection was not sticky: with the queue drained the next
    // submit is admitted normally.
    Collector d_events;
    manager.submit(makeRequest("enumerate", 301), d_events.sink());
    EXPECT_EQ(d_events.waitTerminal().get("type").asString(),
              "result");
}

TEST(JobManager, DequeueIsRoundRobinAcrossClients)
{
    SessionCache sessions;
    JobManager manager(sessions, 1, 16);

    std::mutex order_mutex;
    std::vector<int> order;
    auto tagging = [&](Collector &collector, int tag) {
        return EventSink([inner = collector.sink(), &order_mutex,
                          &order, tag](const json::Value &event) {
            if (event.get("type").asString() == "started") {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(tag);
            }
            inner(event);
        });
    };

    // Park the worker inside A (client 1) while the backlog forms.
    std::promise<void> a_started;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    Collector a_events;
    EventSink a_sink = [inner = a_events.sink(), &a_started,
                        released](const json::Value &event) {
        inner(event);
        if (event.get("type").asString() == "started") {
            a_started.set_value();
            released.wait();
        }
    };
    manager.submit(makeRequest("enumerate", 311), a_sink,
                   /*client=*/1);
    a_started.get_future().wait();

    Collector b_events;
    Collector e_events;
    Collector c_events;
    manager.submit(makeRequest("enumerate", 311),
                   tagging(b_events, 1), /*client=*/1);
    manager.submit(makeRequest("enumerate", 311),
                   tagging(e_events, 2), /*client=*/1);
    manager.submit(makeRequest("enumerate", 311),
                   tagging(c_events, 3), /*client=*/2);
    release.set_value();
    b_events.waitTerminal();
    e_events.waitTerminal();
    c_events.waitTerminal();
    a_events.waitTerminal();

    // Global FIFO would drain client 1's backlog (B, then E) before
    // client 2 ever started; round-robin interleaves: B, C, E.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// ---------------------------------------------------------------
// Daemon over a real unix socket
// ---------------------------------------------------------------

namespace
{

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
    const std::string wire = encodeFrame(message);
    size_t off = 0;
    while (off < wire.size()) {
        ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
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
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return false;
        reader.feed(buf, static_cast<size_t>(n));
    }
}

std::string
socketPath()
{
    // Short and unique: unix socket paths cap at ~100 chars.
    return "/tmp/archval_test_" + std::to_string(::getpid()) +
           ".sock";
}

} // namespace

TEST(Daemon, ConcurrentClientsGetByteIdenticalResults)
{
    const std::string path = socketPath();
    Daemon::Options options;
    options.unixPath = path;
    options.workers = 2;
    Daemon daemon(options);
    ASSERT_EQ(daemon.start(), "");

    constexpr int kClients = 4;
    std::vector<std::string> plays(kClients);
    std::vector<std::string> verdicts(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            int fd = connectUnix(path);
            ASSERT_GE(fd, 0);
            json::Value request = json::Value::object();
            request.set("verb", "replay");
            request.set("threads", static_cast<int64_t>(2));
            ASSERT_TRUE(sendFrame(fd, request));
            FrameReader reader;
            json::Value event;
            while (readEvent(fd, reader, event)) {
                const std::string &type =
                    event.get("type").asString();
                if (type == "result") {
                    plays[i] = event.get("plays").serialize();
                    verdicts[i] =
                        event.get("verdict").asString();
                    break;
                }
                ASSERT_NE(type, "error")
                    << event.get("message").asString();
                ASSERT_NE(type, "cancelled");
            }
            ::close(fd);
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(verdicts[i], "ok") << "client " << i;
        ASSERT_FALSE(plays[i].empty()) << "client " << i;
        EXPECT_EQ(plays[i], plays[0]) << "client " << i;
    }
    // All four requests shared one session.
    EXPECT_EQ(daemon.sessions().stats().sessions, 1u);
    EXPECT_GE(daemon.sessions().stats().hits, 3u);

    daemon.stop();
    daemon.wait();
}

TEST(Daemon, ControlVerbsAndProtocolDamage)
{
    const std::string path = socketPath() + "2";
    Daemon::Options options;
    options.unixPath = path;
    options.workers = 1;
    Daemon daemon(options);
    ASSERT_EQ(daemon.start(), "");

    // Normal control round-trip.
    int fd = connectUnix(path);
    ASSERT_GE(fd, 0);
    json::Value ping = json::Value::object();
    ping.set("verb", "ping");
    ASSERT_TRUE(sendFrame(fd, ping));
    FrameReader reader;
    json::Value event;
    ASSERT_TRUE(readEvent(fd, reader, event));
    EXPECT_EQ(event.get("type").asString(), "pong");

    json::Value status = json::Value::object();
    status.set("verb", "status");
    status.set("job", static_cast<int64_t>(999));
    ASSERT_TRUE(sendFrame(fd, status));
    ASSERT_TRUE(readEvent(fd, reader, event));
    EXPECT_EQ(event.get("type").asString(), "error");
    ::close(fd);

    // A frame with a hostile length prefix fails only that
    // connection: one error frame, then EOF.
    int bad = connectUnix(path);
    ASSERT_GE(bad, 0);
    const unsigned char hostile[] = {0xff, 0xff, 0xff, 0x7f, 'x'};
    ASSERT_EQ(::send(bad, hostile, sizeof(hostile), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(hostile)));
    FrameReader bad_reader;
    ASSERT_TRUE(readEvent(bad, bad_reader, event));
    EXPECT_EQ(event.get("type").asString(), "error");
    char drain[256];
    EXPECT_LE(::recv(bad, drain, sizeof(drain), 0), 0); // EOF
    ::close(bad);

    // Garbage JSON in a well-formed frame: same containment.
    int garbage = connectUnix(path);
    ASSERT_GE(garbage, 0);
    const std::string wire = encodeFrame(std::string("{not json"));
    ASSERT_TRUE(::send(garbage, wire.data(), wire.size(),
                       MSG_NOSIGNAL) ==
                static_cast<ssize_t>(wire.size()));
    FrameReader garbage_reader;
    ASSERT_TRUE(readEvent(garbage, garbage_reader, event));
    EXPECT_EQ(event.get("type").asString(), "error");
    ::close(garbage);

    // The daemon survived both and still answers.
    int again = connectUnix(path);
    ASSERT_GE(again, 0);
    ASSERT_TRUE(sendFrame(again, ping));
    FrameReader again_reader;
    ASSERT_TRUE(readEvent(again, again_reader, event));
    EXPECT_EQ(event.get("type").asString(), "pong");

    // Shutdown verb stops the daemon.
    json::Value shutdown = json::Value::object();
    shutdown.set("verb", "shutdown");
    ASSERT_TRUE(sendFrame(again, shutdown));
    ASSERT_TRUE(readEvent(again, again_reader, event));
    EXPECT_EQ(event.get("type").asString(), "shutting_down");
    ::close(again);
    daemon.wait();
}

TEST(Daemon, WrongTypedDesignFieldIsBadRequestFrame)
{
    const std::string path = socketPath() + "3";
    Daemon::Options options;
    options.unixPath = path;
    options.workers = 1;
    Daemon daemon(options);
    ASSERT_EQ(daemon.start(), "");

    int fd = connectUnix(path);
    ASSERT_GE(fd, 0);
    // Sent as raw text: re-serializing a parsed Value would print
    // the integral double back as `500000` and lose the very typing
    // mistake under test.
    const std::string wire = encodeFrame(std::string(
        "{\"verb\": \"replay\", \"design\": {\"maxStates\": "
        "500000.0}}"));
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    // The double-typed field answers with a `bad request` error
    // frame naming the field — not a silently defaulted job.
    FrameReader reader;
    json::Value event;
    ASSERT_TRUE(readEvent(fd, reader, event));
    EXPECT_EQ(event.get("type").asString(), "error");
    EXPECT_NE(event.get("message").asString().find("maxStates"),
              std::string::npos);

    // The connection and the daemon both survive the bad request.
    json::Value ping = json::Value::object();
    ping.set("verb", "ping");
    ASSERT_TRUE(sendFrame(fd, ping));
    ASSERT_TRUE(readEvent(fd, reader, event));
    EXPECT_EQ(event.get("type").asString(), "pong");
    ::close(fd);

    daemon.stop();
    daemon.wait();
}

// ---------------------------------------------------------------
// Session persistence across daemon restarts
// ---------------------------------------------------------------

namespace
{

/** Remove every file in @p dir, then the directory itself. */
void
removeTree(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (d) {
        while (dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                ::unlink((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

std::string
makeStoreDir(const char *tag)
{
    std::string tmpl = ::testing::TempDir() + "/archval-store-" +
                       tag + "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(::mkdtemp(buf.data()), nullptr);
    return std::string(buf.data());
}

/** Two daemon lifetimes on one store, each serving one replay job on
 *  @p design's session: the second must restore and replay warm. */
void
expectRestartReplaysWarm(const DesignSpec &design)
{
    SCOPED_TRACE(design.fingerprint());
    const std::string store = makeStoreDir("restart");
    const std::string path = socketPath() + "p";

    struct Run
    {
        std::string plays;
        int64_t cycles = 0;
        int64_t warmHits = 0;
        int64_t traces = 0;
    };

    // One full daemon lifetime: serve one replay job over a real
    // socket, then stop — the moral equivalent of a restart.
    auto runReplay = [&](bool expect_restore) {
        Run run;
        Daemon::Options options;
        options.unixPath = path;
        options.workers = 2;
        options.sessionDir = store;
        Daemon daemon(options);
        EXPECT_EQ(daemon.start(), "");
        int fd = connectUnix(path);
        EXPECT_GE(fd, 0);
        json::Value request = json::Value::object();
        request.set("verb", "replay");
        request.set("threads", static_cast<int64_t>(2));
        if (design.maxInstructionsPerTrace) {
            json::Value fields = json::Value::object();
            fields.set("maxInstructionsPerTrace",
                       static_cast<int64_t>(design.maxInstructionsPerTrace));
            request.set("design", std::move(fields));
        }
        EXPECT_TRUE(sendFrame(fd, request));
        FrameReader reader;
        json::Value event;
        while (readEvent(fd, reader, event)) {
            const std::string &type = event.get("type").asString();
            EXPECT_NE(type, "error")
                << event.get("message").asString();
            if (type == "result") {
                run.plays = event.get("plays").serialize();
                run.cycles = event.get("simulatedCycles").asInt();
                run.warmHits = event.get("warm").get("hits").asInt();
                run.traces = event.get("traces").asInt();
                break;
            }
        }
        ::close(fd);
        daemon.stop();
        daemon.wait(); // workers joined: the post-job save is done
        const SessionCache::Stats stats = daemon.sessions().stats();
        if (expect_restore)
            EXPECT_GE(stats.restoreHits, 1u);
        else
            EXPECT_GE(stats.saves, 1u);
        return run;
    };

    const Run cold = runReplay(false);
    ASSERT_FALSE(cold.plays.empty());
    EXPECT_EQ(cold.traces,
              design.maxInstructionsPerTrace ? int64_t{kManyTraces} : 1);
    EXPECT_EQ(cold.warmHits, 0);
    EXPECT_GT(cold.cycles, 0);

    const Run warm = runReplay(true);
    // The headline guarantee: after a restart on the same store the
    // results are byte-identical and >= 90% of the cold run's
    // simulated cycles are avoided (every trace hits its restored
    // warm row).
    EXPECT_EQ(warm.plays, cold.plays);
    EXPECT_EQ(warm.traces, cold.traces);
    EXPECT_EQ(warm.warmHits, warm.traces);
    EXPECT_LE(warm.cycles * 10, cold.cycles)
        << "warm=" << warm.cycles << " cold=" << cold.cycles;

    removeTree(store);
}

} // namespace

TEST(SessionPersistence, DaemonRestartReplaysWarmByteIdentical)
{
    expectRestartReplaysWarm(DesignSpec{});
    expectRestartReplaysWarm(manyTraceDesign());
}

namespace
{

/** The store's record-file identity: "AVS1", version 5. */
constexpr uint32_t kStoreMagic = 0x31535641;
constexpr uint32_t kStoreVersion = 5;

/** Records of a store: fingerprint, meta, graph, then the tours when
 *  the session made them, then its warm rows. */
using StoreRecords = std::vector<std::vector<uint8_t>>;

/** Rewrite the store file at @p path under fresh CRCs and a header
 *  of format @p version, passing its records through @p patch, so
 *  that only the decoders can tell a patched record is damaged. */
void
rewriteStoreRecords(const std::string &path, uint32_t version,
                    const std::function<void(StoreRecords &)> &patch)
{
    StoreRecords records;
    {
        RecordFileReader reader(path, kStoreMagic, kStoreVersion);
        ASSERT_TRUE(reader.ok());
        std::vector<uint8_t> rec;
        while (reader.next(rec) == RecordFileReader::Status::Record)
            records.push_back(rec);
    }
    ASSERT_GE(records.size(), 3u); // fingerprint, meta, graph, ...
    patch(records);
    RecordFileWriter writer(path, kStoreMagic, version);
    for (const std::vector<uint8_t> &rec : records)
        ASSERT_TRUE(writer.append(rec));
    ASSERT_TRUE(writer.commit());
}

/** rewriteStoreRecords() patching the graph record alone. */
void
rewriteStore(const std::string &path, uint32_t version,
             const std::function<void(std::vector<uint8_t> &)> &patch)
{
    rewriteStoreRecords(path, version,
                        [&](StoreRecords &records) { patch(records[2]); });
}

uint64_t
getU64(const std::vector<uint8_t> &bytes, size_t at)
{
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= uint64_t(bytes.at(at + i)) << (8 * i);
    return value;
}

/** @return the offset of edge @p index in a graph record: a leading
 *  1 byte, the state width, the state count and the packed states,
 *  then the edge count and 20-byte edges (src u32, dst u32, choice
 *  code u64, instructions u32). */
size_t
edgeOffset(const std::vector<uint8_t> &graph, size_t index)
{
    const uint64_t words = (getU64(graph, 1) + 63) / 64;
    return 1 + 8 + 8 + getU64(graph, 9) * words * 8 + 8 + 20 * index;
}

/**
 * Save a cold `enumerate` session, damage the stored graph record
 * through @p damage (under a fresh CRC), and expect the next job to
 * count one restore failure and rebuild the same graph cold, with
 * the cold graphFingerprint.
 */
void
expectGraphDamageRebuildsCold(
    const char *tag,
    const std::function<void(std::vector<uint8_t> &)> &damage)
{
    const std::string store = makeStoreDir(tag);
    std::string store_file;
    int64_t cold_states = 0;
    int64_t cold_edges = 0;
    std::string cold_fingerprint;
    {
        SessionCache sessions(4, store);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("enumerate"), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        cold_states = result.get("states").asInt();
        cold_edges = result.get("edges").asInt();
        cold_fingerprint = result.get("graphFingerprint").asString();
        manager.shutdown(); // workers joined: the save is on disk
        store_file =
            sessions.store().pathFor(DesignSpec{}.fingerprint());
    }
    ASSERT_GT(cold_edges, 1);
    ASSERT_FALSE(cold_fingerprint.empty());

    rewriteStore(store_file, kStoreVersion, damage);
    SessionCache sessions(4, store);
    JobManager manager(sessions, 2);
    Collector events;
    manager.submit(makeRequest("enumerate"), events.sink());
    json::Value result = events.waitTerminal();
    ASSERT_EQ(result.get("type").asString(), "result")
        << result.get("message").asString();
    EXPECT_EQ(result.get("states").asInt(), cold_states);
    EXPECT_EQ(result.get("edges").asInt(), cold_edges);
    EXPECT_EQ(result.get("graphFingerprint").asString(),
              cold_fingerprint);
    EXPECT_EQ(sessions.stats().restoreFailures, 1u);
    EXPECT_EQ(sessions.stats().restoreHits, 0u);
    manager.shutdown();
    removeTree(store);
}

} // namespace

TEST(SessionPersistence, DamagedStoreDegradesToColdRebuild)
{
    const std::string store = makeStoreDir("damage");
    std::string store_file;
    std::string cold_plays;

    {
        SessionCache sessions(4, store);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("replay"), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        cold_plays = result.get("plays").serialize();
        manager.shutdown(); // workers joined: the save is on disk
        EXPECT_GE(sessions.stats().saves, 1u);
        store_file =
            sessions.store().pathFor(DesignSpec{}.fingerprint());
    }
    struct stat st;
    ASSERT_EQ(::stat(store_file.c_str(), &st), 0);
    ASSERT_GT(st.st_size, 0);

    // Flip one bit in the middle of the store: the restore must be
    // counted as a failure and the session rebuilt cold — with
    // byte-identical results and no crash.
    {
        int fd = ::open(store_file.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        uint8_t byte = 0;
        ASSERT_EQ(::pread(fd, &byte, 1, st.st_size / 2), 1);
        byte ^= 0x40;
        ASSERT_EQ(::pwrite(fd, &byte, 1, st.st_size / 2), 1);
        ::close(fd);

        SessionCache sessions(4, store);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("replay"), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        EXPECT_EQ(result.get("plays").serialize(), cold_plays);
        EXPECT_EQ(result.get("warm").get("hits").asInt(), 0);
        EXPECT_GE(sessions.stats().restoreFailures, 1u);
        manager.shutdown(); // rewrites a clean store on its way out
    }

    // Truncation mid-record: same degradation posture.
    ASSERT_EQ(::stat(store_file.c_str(), &st), 0);
    ASSERT_EQ(::truncate(store_file.c_str(), st.st_size / 3), 0);
    {
        SessionCache sessions(4, store);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("replay"), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        EXPECT_EQ(result.get("plays").serialize(), cold_plays);
        EXPECT_GE(sessions.stats().restoreFailures, 1u);
        manager.shutdown(); // rewrites a clean store on its way out
    }

    // A warm row that does not decode, under a fresh CRC: a pin that
    // PpCore::deserializeSnapshot refuses, then a row index outside
    // the tours. Each is a restore failure, rebuilt cold.
    auto damage_row =
        [&](const std::function<void(std::vector<uint8_t> &)> &patch) {
            rewriteStoreRecords(
                store_file, kStoreVersion, [&](StoreRecords &records) {
                    // Fingerprint, meta, graph, tours, the one row.
                    ASSERT_EQ(records.size(), 5u);
                    patch(records[4]);
                });
            SessionCache sessions(4, store);
            JobManager manager(sessions, 2);
            Collector events;
            manager.submit(makeRequest("replay"), events.sink());
            json::Value result = events.waitTerminal();
            ASSERT_EQ(result.get("type").asString(), "result")
                << result.get("message").asString();
            EXPECT_EQ(result.get("plays").serialize(), cold_plays);
            EXPECT_EQ(result.get("warm").get("hits").asInt(), 0);
            EXPECT_EQ(sessions.stats().restoreFailures, 1u);
            EXPECT_EQ(sessions.stats().restoreHits, 0u);
            manager.shutdown();
        };
    damage_row([](std::vector<uint8_t> &row) {
        // The row's index (u64), then its record: version (u32), trace
        // hash (u64), the donor result (u8, length-prefixed diff, three
        // u64, two u8), the bug count (u32), the triggers, the pin
        // count (u64), then the first pin's cycle, lockstep count and
        // snapshot length (u64 each) and its snapshot record, whose
        // version is the u32 after its magic.
        const size_t count_at = 8 + 4 + 8 + 1 + 8 + getU64(row, 21) +
                                3 * 8 + 2 + 4 + 8 * rtl::numBugs;
        ASSERT_GT(getU64(row, count_at), 0u);
        const size_t version_at = count_at + 8 + 3 * 8 + 4;
        ASSERT_EQ(row.at(version_at), 3u);
        row.at(version_at) = 2;
    });
    damage_row([](std::vector<uint8_t> &row) {
        ASSERT_EQ(getU64(row, 0), 0u);
        row.at(0) = 1; // the design has one tour
    });

    removeTree(store);
}

TEST(SessionPersistence, WideChoiceCodeIsRestoreFailure)
{
    // A stored choice code of 2^32: a 32-bit edge field would keep 0.
    expectGraphDamageRebuildsCold("code", [](std::vector<uint8_t> &graph) {
        graph.at(edgeOffset(graph, 0) + 8 + 4) = 1;
    });
}

TEST(SessionPersistence, OtherStateWidthIsRestoreFailure)
{
    // The default session's 30-bit states stored as 31-bit ones, as
    // a build with another control layout would: every state still
    // fits and the words are unchanged, so only the width tells.
    expectGraphDamageRebuildsCold("width", [](std::vector<uint8_t> &graph) {
        ASSERT_EQ(getU64(graph, 1), 30u);
        graph.at(1) = 31;
    });
}

TEST(SessionPersistence, EdgesOutOfSourceOrderAreRestoreFailure)
{
    // The first and last edges swapped: sources out of order.
    expectGraphDamageRebuildsCold("order", [](std::vector<uint8_t> &graph) {
        const size_t count = getU64(graph, edgeOffset(graph, 0) - 8);
        const size_t first = edgeOffset(graph, 0);
        const size_t last = edgeOffset(graph, count - 1);
        ASSERT_LT(getU64(graph, first) & 0xffffffff,
                  getU64(graph, last) & 0xffffffff);
        std::swap_ranges(graph.begin() + first,
                         graph.begin() + first + 20,
                         graph.begin() + last);
    });
}

namespace
{

/** Tour figures of the default session, as a `tour` job and then an
 *  `enumerate` job of one lifetime report them. */
struct TourFigures
{
    int64_t tours = 0;
    std::string fingerprint;
};

TourFigures
tourThenEnumerate(SessionCache &sessions)
{
    JobManager manager(sessions, 2);
    TourFigures figures;
    Collector tour_events;
    manager.submit(makeRequest("tour"), tour_events.sink());
    json::Value tour = tour_events.waitTerminal();
    EXPECT_EQ(tour.get("type").asString(), "result")
        << tour.get("message").asString();
    figures.tours = tour.get("tours").asInt();
    Collector enum_events;
    manager.submit(makeRequest("enumerate"), enum_events.sink());
    json::Value graph = enum_events.waitTerminal();
    EXPECT_EQ(graph.get("type").asString(), "result")
        << graph.get("message").asString();
    figures.fingerprint = graph.get("graphFingerprint").asString();
    manager.shutdown(); // workers joined: the save is on disk
    return figures;
}

/** The tours record, for patching: its first trace's edge ids and run
 *  ends sit at fixed offsets (u64 count, then per trace u64 edge
 *  count, u32 edges, u64 run count, u32 run ends, u64 instructions,
 *  u8 limit flag). */
struct FirstTrace
{
    std::vector<uint8_t> &rec;

    uint64_t edges() const { return getU64(rec, 8); }
    size_t edgeAt(size_t i) const { return 16 + 4 * i; }
    uint64_t runs() const { return getU64(rec, 16 + 4 * edges()); }
    size_t runEndAt(size_t r) const { return 24 + 4 * edges() + 4 * r; }

    uint32_t
    get(size_t at) const
    {
        return uint32_t(getU64(rec, at) & 0xffffffff);
    }

    void
    set(size_t at, uint32_t value)
    {
        for (int i = 0; i < 4; ++i)
            rec.at(at + i) = uint8_t(value >> (8 * i));
    }
};

/**
 * Save a cold `tour` session, damage its tours record through
 * @p damage (under a fresh CRC; the graph record is passed along to
 * read edges from), and expect the next lifetime to count one restore
 * failure and rebuild cold: the cold tour count and graphFingerprint.
 */
void
expectToursDamageRebuildsCold(
    const char *tag,
    const std::function<void(FirstTrace, const std::vector<uint8_t> &)>
        &damage)
{
    const std::string store = makeStoreDir(tag);
    TourFigures cold;
    std::string store_file;
    {
        SessionCache sessions(4, store);
        cold = tourThenEnumerate(sessions);
        store_file = sessions.store().pathFor(DesignSpec{}.fingerprint());
    }
    ASSERT_GT(cold.tours, 0);
    ASSERT_FALSE(cold.fingerprint.empty());

    rewriteStoreRecords(store_file, kStoreVersion,
                        [&](StoreRecords &records) {
                            ASSERT_EQ(records.size(), 4u);
                            damage(FirstTrace{records[3]}, records[2]);
                        });
    SessionCache sessions(4, store);
    const TourFigures restored = tourThenEnumerate(sessions);
    EXPECT_EQ(restored.tours, cold.tours);
    EXPECT_EQ(restored.fingerprint, cold.fingerprint);
    EXPECT_EQ(sessions.stats().restoreFailures, 1u);
    EXPECT_EQ(sessions.stats().restoreHits, 0u);
    removeTree(store);
}

} // namespace

TEST(SessionPersistence, RunEndPastEdgeCountIsRestoreFailure)
{
    expectToursDamageRebuildsCold(
        "runend", [](FirstTrace trace, const std::vector<uint8_t> &) {
            ASSERT_GT(trace.runs(), 0u);
            trace.set(trace.runEndAt(trace.runs() - 1),
                      uint32_t(trace.edges() + 5));
        });
}

TEST(SessionPersistence, DiscontinuousRunIsRestoreFailure)
{
    // In the first run of two or more edges, its second edge is
    // replaced by one that leaves another state than the first
    // enters: every id stays in the graph and the run ends keep their
    // shape, so only the walk check can tell.
    expectToursDamageRebuildsCold(
        "discontinuous",
        [](FirstTrace trace, const std::vector<uint8_t> &graph) {
            auto src = [&](uint32_t e) {
                return getU64(graph, edgeOffset(graph, e)) & 0xffffffff;
            };
            auto dst = [&](uint32_t e) {
                return getU64(graph, edgeOffset(graph, e)) >> 32;
            };
            const uint64_t num_edges =
                getU64(graph, edgeOffset(graph, 0) - 8);
            uint64_t begin = 0;
            for (uint64_t r = 0; r <= trace.runs(); ++r) {
                const uint64_t end = r < trace.runs()
                                         ? trace.get(trace.runEndAt(r))
                                         : trace.edges();
                if (end - begin >= 2)
                    break;
                begin = end;
            }
            ASSERT_LT(begin + 1, trace.edges());
            const uint32_t at =
                trace.get(trace.edgeAt(begin)); // the run's first edge
            uint32_t other = 0;
            while (other < num_edges && src(other) == dst(at))
                ++other;
            ASSERT_LT(other, num_edges);
            trace.set(trace.edgeAt(begin + 1), other);
        });
}

TEST(SessionPersistence, StaleStoreVersionRebuildsCold)
{
    // A store whose header carries the previous format version, its
    // records unchanged, must not restore: the next job rebuilds the
    // session cold and reports the cold graph. An older store is a
    // routine upgrade, so it counts as a miss, not a failure.
    const std::string store = makeStoreDir("stale");
    std::string store_file;
    int64_t cold_states = 0;
    int64_t cold_edges = 0;
    std::string cold_fingerprint;
    {
        SessionCache sessions(4, store);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("enumerate"), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        cold_states = result.get("states").asInt();
        cold_edges = result.get("edges").asInt();
        cold_fingerprint = result.get("graphFingerprint").asString();
        manager.shutdown(); // workers joined: the save is on disk
        EXPECT_GE(sessions.stats().saves, 1u);
        store_file =
            sessions.store().pathFor(DesignSpec{}.fingerprint());
    }
    ASSERT_FALSE(cold_fingerprint.empty());

    rewriteStore(store_file, kStoreVersion - 1,
                 [](std::vector<uint8_t> &) {});
    SessionCache sessions(4, store);
    JobManager manager(sessions, 2);
    Collector events;
    manager.submit(makeRequest("enumerate"), events.sink());
    json::Value result = events.waitTerminal();
    ASSERT_EQ(result.get("type").asString(), "result")
        << result.get("message").asString();
    EXPECT_EQ(result.get("states").asInt(), cold_states);
    EXPECT_EQ(result.get("edges").asInt(), cold_edges);
    EXPECT_EQ(result.get("graphFingerprint").asString(),
              cold_fingerprint);
    EXPECT_EQ(sessions.stats().restoreHits, 0u);
    EXPECT_EQ(sessions.stats().restoreMisses, 1u);
    EXPECT_EQ(sessions.stats().restoreFailures, 0u);
    manager.shutdown();
    removeTree(store);
}

TEST(SessionPersistence, SizeCapEvictsLruAndEvictedRebuildsCold)
{
    const std::string store = makeStoreDir("cap");

    // Uncapped first lifetime: persist session A (vectorSeed 1) and
    // learn its on-disk size.
    std::string file_a, plays_a;
    {
        SessionCache sessions(4, store);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("replay", 1), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        plays_a = result.get("plays").serialize();
        manager.shutdown(); // workers joined: the save is on disk
        EXPECT_GE(sessions.stats().saves, 1u);
        file_a = sessions.store().pathFor(
            makeRequest("replay", 1).design.fingerprint());
    }
    struct stat st;
    ASSERT_EQ(::stat(file_a.c_str(), &st), 0);
    ASSERT_GT(st.st_size, 0);

    // Capped second lifetime: saving session B (vectorSeed 2) pushes
    // the directory past the cap, so A — the least recently used
    // file — is evicted while B, just written, must survive even
    // though the directory may still exceed the cap with only B in
    // it (a single oversize session always persists).
    const size_t cap = static_cast<size_t>(st.st_size) +
                       static_cast<size_t>(st.st_size) / 2;
    std::string file_b;
    {
        SessionCache sessions(4, store, cap);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("replay", 2), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        manager.shutdown();
        EXPECT_GE(sessions.store().stats().evictions, 1u);
        file_b = sessions.store().pathFor(
            makeRequest("replay", 2).design.fingerprint());
    }
    EXPECT_NE(::stat(file_a.c_str(), &st), 0)
        << "LRU file survived the cap";
    EXPECT_EQ(::stat(file_b.c_str(), &st), 0)
        << "just-written file was evicted";

    // Eviction is not an error state: the evicted fingerprint's next
    // job is a restore miss that rebuilds cold — byte-identical to
    // the original run, no warm hits, no crash.
    {
        SessionCache sessions(4, store, cap);
        JobManager manager(sessions, 2);
        Collector events;
        manager.submit(makeRequest("replay", 1), events.sink());
        json::Value result = events.waitTerminal();
        ASSERT_EQ(result.get("type").asString(), "result")
            << result.get("message").asString();
        EXPECT_EQ(result.get("plays").serialize(), plays_a);
        EXPECT_EQ(result.get("warm").get("hits").asInt(), 0);
        EXPECT_GE(sessions.store().stats().restoreMisses, 1u);
        manager.shutdown();
    }

    removeTree(store);
}
