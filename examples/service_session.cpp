/**
 * @file
 * Domain example: a session with the archvald validation service.
 *
 * Boots an in-process daemon on a unix socket, then plays a whole
 * client session against it over the real wire protocol: enumerate
 * the design, replay its vectors cold, replay them again warm (the
 * SessionCache keeps the state graph, tour corpus and replay warm
 * cache alive between requests, so the repeat skips enumeration AND
 * the donor simulation), inject a bug, inspect the job table, and
 * shut the daemon down — all with length-prefixed JSON frames, the
 * same bytes archval_client speaks.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/daemon.hh"
#include "service/protocol.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

using namespace archval;
using service::FrameReader;

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
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) != 0)
        return -1;
    return fd;
}

bool
sendFrame(int fd, const json::Value &message)
{
    const std::string wire = service::encodeFrame(message);
    return ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(wire.size());
}

bool
readEvent(int fd, FrameReader &reader, json::Value &event)
{
    std::string payload;
    char buf[64 * 1024];
    while (true) {
        FrameReader::Status status = reader.next(payload);
        if (status == FrameReader::Status::Ready) {
            auto parsed = json::parse(payload);
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

/** Submit a job and block for its terminal event. */
json::Value
runJob(int fd, FrameReader &reader, const json::Value &request)
{
    if (!sendFrame(fd, request))
        return {};
    json::Value event;
    while (readEvent(fd, reader, event)) {
        const std::string &type = event.get("type").asString();
        if (type == "result" || type == "error" ||
            type == "cancelled")
            return event;
    }
    return {};
}

} // namespace

int
main()
{
    telemetry::initTelemetryFromEnv();

    // --- 1. Boot the daemon (in-process here; `archvald --socket
    //        PATH` is the same thing as its own process).
    const std::string path =
        "/tmp/archval_example_" + std::to_string(::getpid()) +
        ".sock";
    service::Daemon::Options options;
    options.unixPath = path;
    options.workers = 2;
    service::Daemon daemon(options);
    std::string error = daemon.start();
    if (!error.empty()) {
        std::printf("daemon failed to start: %s\n", error.c_str());
        return 1;
    }
    std::printf("archvald up on %s (2 workers)\n\n", path.c_str());

    int fd = connectUnix(path);
    if (fd < 0) {
        std::printf("cannot connect\n");
        return 1;
    }
    FrameReader reader;

    // --- 2. Enumerate: the first request on a fingerprint builds
    //        the session (model + state graph).
    json::Value enumerate = json::Value::object();
    enumerate.set("verb", "enumerate");
    json::Value enum_result = runJob(fd, reader, enumerate);
    std::printf("enumerate: %lld states, %lld edges\n",
                (long long)enum_result.get("states").asInt(),
                (long long)enum_result.get("edges").asInt());

    // --- 3. Cold replay: tours and vectors are generated once,
    //        every cycle is simulated, and the bug-free run fills
    //        the trace's warm row with its result and pins.
    json::Value replay = json::Value::object();
    replay.set("verb", "replay");
    replay.set("threads", static_cast<int64_t>(2));
    json::Value cold = runJob(fd, reader, replay);
    std::printf("cold replay: %s cycles simulated, warm hits %lld\n",
                withCommas(static_cast<uint64_t>(
                               cold.get("simulatedCycles").asInt()))
                    .c_str(),
                (long long)cold.get("warm").get("hits").asInt());

    // --- 4. Warm replay: same request, same session — the donor
    //        result is copied instead of re-simulated.
    json::Value warm = runJob(fd, reader, replay);
    const long long cold_cycles = cold.get("simulatedCycles").asInt();
    const long long warm_cycles = warm.get("simulatedCycles").asInt();
    const bool identical = warm.get("plays").serialize() ==
                           cold.get("plays").serialize();
    std::printf("warm replay: %s cycles simulated, warm hits %lld, "
                "results %s\n",
                withCommas(static_cast<uint64_t>(warm_cycles))
                    .c_str(),
                (long long)warm.get("warm").get("hits").asInt(),
                identical ? "byte-identical" : "MISMATCH");
    const bool saved_90 = warm_cycles * 10 <= cold_cycles;
    std::printf("  -> repeat avoided %.1f%% of the cold run's "
                "simulation\n\n",
                cold_cycles
                    ? 100.0 * (cold_cycles - warm_cycles) /
                          cold_cycles
                    : 0.0);

    // --- 5. The same session also powers bug work: replay with an
    //        injected bug reuses the warm donor block.
    json::Value bugs = json::Value::array();
    bugs.push(json::Value("bug1"));
    replay.set("bugs", std::move(bugs));
    json::Value bug_run = runJob(fd, reader, replay);
    std::printf("replay with bug1: verdict '%s' (%lld/%lld traces "
                "diverged)\n",
                bug_run.get("verdict").asString().c_str(),
                (long long)bug_run.get("diverged").asInt(),
                (long long)bug_run.get("traces").asInt());

    // --- 6. Control verbs: the job table survives its jobs.
    json::Value list = json::Value::object();
    list.set("verb", "list");
    sendFrame(fd, list);
    json::Value jobs;
    readEvent(fd, reader, jobs);
    std::printf("job table: %zu jobs, all terminal\n",
                jobs.get("jobs").items().size());

    // --- 7. Shutdown via the protocol.
    json::Value shutdown = json::Value::object();
    shutdown.set("verb", "shutdown");
    sendFrame(fd, shutdown);
    json::Value ack;
    readEvent(fd, reader, ack);
    ::close(fd);
    daemon.wait();
    std::printf("daemon stopped (%s)\n",
                ack.get("type").asString().c_str());

    const bool detected =
        bug_run.get("verdict").asString() == "detected";
    return identical && saved_90 && detected ? 0 : 1;
}
