#include "daemon.hh"

#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/metrics_http.hh"
#include "service/protocol.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/memusage.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::service
{

/**
 * One accepted client. Lives as a shared_ptr captured by the
 * connection's reader thread and by every EventSink it registered,
 * so writes stay valid for as long as any job may still emit.
 */
struct Daemon::Connection
{
    int fd = -1;
    uint64_t id = 0; ///< fairness key for JobManager::submit
    /** Serializes whole frames onto the socket. Recursive because
     *  submit() may emit synchronously (busy rejection, daemon
     *  already stopping) while the dispatcher holds it to order
     *  `accepted` first. */
    std::recursive_mutex writeMutex;
    std::atomic<bool> dead{false};
    std::vector<uint64_t> jobIds; ///< guarded by writeMutex

    void send(const json::Value &message)
    {
        if (dead.load(std::memory_order_relaxed))
            return;
        const std::string frame = encodeFrame(message);
        std::lock_guard<std::recursive_mutex> lock(writeMutex);
        // sendAll retries EINTR and short sends; only a real
        // transport failure may mark the connection dead, so a
        // signal landing mid-write cannot silently drop every
        // remaining event for this client.
        if (!sendAll(fd, frame.data(), frame.size()))
            dead.store(true, std::memory_order_relaxed);
    }
};

namespace
{

json::Value
errorReply(const std::string &message)
{
    json::Value reply = json::Value::object();
    reply.set("type", "error");
    reply.set("message", message);
    return reply;
}

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "unix socket path too long: " + path;
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "socket(AF_UNIX) failed";
        return -1;
    }
    ::unlink(path.c_str()); // replace a stale socket file
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        error = formatString("cannot listen on %s: %s", path.c_str(),
                             std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenTcp(int port, int &bound_port, std::string &error)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "socket(AF_INET) failed";
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        error = formatString("cannot listen on tcp port %d: %s", port,
                             std::strerror(errno));
        ::close(fd);
        return -1;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        bound_port = ntohs(bound.sin_port);
    return fd;
}

} // namespace

Daemon::Daemon(const Options &options)
    : options_(options),
      sessions_(options.maxSessions, options.sessionDir,
                options.sessionDirCapBytes),
      jobs_(std::make_unique<JobManager>(sessions_, options.workers,
                                         options.queueBound))
{
}

Daemon::~Daemon()
{
    stop();
    wait();
}

std::string
Daemon::start()
{
    if (options_.unixPath.empty() && options_.tcpPort < 0)
        return "no listener configured (need a socket path or port)";
    startNs_ = telemetry::nowNs();
    std::string error;
    if (!options_.unixPath.empty()) {
        unixFd_ = listenUnix(options_.unixPath, error);
        if (unixFd_ < 0)
            return error;
    }
    if (options_.tcpPort >= 0) {
        tcpFd_ = listenTcp(options_.tcpPort, boundTcpPort_, error);
        if (tcpFd_ < 0) {
            if (unixFd_ >= 0) {
                ::close(unixFd_);
                unixFd_ = -1;
            }
            return error;
        }
    }
    if (options_.metricsPort >= 0) {
        metricsServer_ = std::make_unique<MetricsHttpServer>();
        error = metricsServer_->start(options_.metricsPort, [this] {
            refreshObservabilityGauges();
            return telemetry::renderPrometheus(
                telemetry::snapshotMetrics());
        });
        if (!error.empty()) {
            metricsServer_.reset();
            if (unixFd_ >= 0) {
                ::close(unixFd_);
                unixFd_ = -1;
            }
            if (tcpFd_ >= 0) {
                ::close(tcpFd_);
                tcpFd_ = -1;
            }
            return error;
        }
    }
    // Arm the black box: ring events from every subsystem, dumped
    // with the active-job table on terminate/SIGUSR1.
    flight::FlightRecorderOptions flight_options;
    flight_options.crashDir = options_.crashDir;
    flight_options.activeJobsJson = [this] {
        return jobs_->activeJobsJson();
    };
    flight::initFlightRecorder(flight_options);
    if (unixFd_ >= 0)
        acceptThreads_.emplace_back(
            [this, fd = unixFd_] { acceptLoop(fd); });
    if (tcpFd_ >= 0)
        acceptThreads_.emplace_back(
            [this, fd = tcpFd_] { acceptLoop(fd); });
    return {};
}

void
Daemon::stop()
{
    // Under mutex_, which wait() takes before it closes the listening
    // descriptors: a stop() from a connection thread must finish
    // reading them first.
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.exchange(true))
        return;
    // Wake the accept threads; their accept() fails and they exit.
    if (unixFd_ >= 0)
        ::shutdown(unixFd_, SHUT_RDWR);
    if (tcpFd_ >= 0)
        ::shutdown(tcpFd_, SHUT_RDWR);
    stopCv_.notify_all();
}

void
Daemon::wait()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopCv_.wait(lock, [&] { return stopping_.load(); });
        if (stopped_)
            return;
        stopped_ = true;
    }
    for (std::thread &t : acceptThreads_)
        t.join();
    acceptThreads_.clear();
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(options_.unixPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
    // Disarm the observability surfaces before tearing down what
    // their callbacks reach (the flight recorder's active-job
    // callback captures jobs_).
    metricsServer_.reset();
    flight::shutdownFlightRecorder();
    // Cancel running jobs and join the workers; terminal events
    // still reach clients whose connections are alive.
    jobs_->shutdown();
    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conns.swap(conns_);
        threads.swap(connThreads_);
    }
    for (auto &conn : conns) {
        conn->dead.store(true, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR); // unblock the reader thread
    }
    for (std::thread &t : threads)
        t.join();
    for (auto &conn : conns)
        ::close(conn->fd);
}

void
Daemon::acceptLoop(int listen_fd)
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return; // listener unusable
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->id = nextConnId_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_.load(std::memory_order_relaxed)) {
                ::close(fd);
                return;
            }
            conns_.push_back(conn);
            connThreads_.emplace_back(
                [this, conn] { serveConnection(conn); });
        }
        telemetry::counter("service.connections").add(1);
        flight::recordEvent(flight::EventKind::ConnectionOpen,
                            conn->id);
    }
}

void
Daemon::serveConnection(std::shared_ptr<Connection> conn)
{
    FrameReader reader;
    char buf[64 * 1024];
    bool protocol_ok = true;
    while (protocol_ok) {
        ssize_t n = recvRetry(conn->fd, buf, sizeof(buf));
        if (n <= 0)
            break; // disconnect (or teardown shut the fd down)
        reader.feed(buf, static_cast<size_t>(n));
        std::string payload;
        FrameReader::Status status;
        while ((status = reader.next(payload)) ==
               FrameReader::Status::Ready) {
            Result<json::Value> parsed = json::parse(payload);
            if (!parsed.ok()) {
                conn->send(errorReply("bad request: " +
                                      parsed.errorMessage()));
                flight::recordEvent(flight::EventKind::FrameError,
                                    conn->id, 0,
                                    parsed.errorMessage());
                protocol_ok = false;
                break;
            }
            handleMessage(conn, parsed.value());
        }
        if (status == FrameReader::Status::Error) {
            conn->send(errorReply("protocol error: " +
                                  reader.error()));
            flight::recordEvent(flight::EventKind::FrameError,
                                conn->id, 0, reader.error());
            protocol_ok = false;
        }
    }
    conn->dead.store(true, std::memory_order_relaxed);
    flight::recordEvent(flight::EventKind::ConnectionClosed,
                        conn->id);
    // The client is gone: nothing will read its streamed events, so
    // stop paying for its jobs.
    std::vector<uint64_t> owned;
    {
        std::lock_guard<std::recursive_mutex> lock(conn->writeMutex);
        owned.swap(conn->jobIds);
    }
    for (uint64_t id : owned)
        jobs_->cancel(id);
    if (!stopping_.load(std::memory_order_relaxed))
        ::close(conn->fd); // else wait() owns the fd
}

int
Daemon::metricsPort() const
{
    return metricsServer_ ? metricsServer_->port() : -1;
}

void
Daemon::refreshObservabilityGauges() const
{
    telemetry::sampleProcessMemory();
    telemetry::gauge("service.uptime_seconds")
        .set(static_cast<int64_t>(
            (telemetry::nowNs() - startNs_) / 1000000000ull));
    const SessionCache::Stats cache = sessions_.stats();
    telemetry::gauge("service.sessions")
        .set(static_cast<int64_t>(cache.sessions));
}

json::Value
Daemon::statsFrame() const
{
    refreshObservabilityGauges();
    json::Value reply = json::Value::object();
    reply.set("type", "stats");
    reply.set("uptimeSeconds",
              double(telemetry::nowNs() - startNs_) / 1e9);
    json::Value build = json::Value::object();
#if defined(__clang__)
    build.set("compiler", formatString("clang %d.%d", __clang_major__,
                                       __clang_minor__));
#elif defined(__GNUC__)
    build.set("compiler", formatString("gcc %d.%d", __GNUC__,
                                       __GNUC_MINOR__));
#else
    build.set("compiler", "unknown");
#endif
#ifdef NDEBUG
    build.set("assertions", false);
#else
    build.set("assertions", true);
#endif
    reply.set("build", std::move(build));
    reply.set("queue", jobs_->overviewJson());
    const SessionCache::Stats cache = sessions_.stats();
    json::Value sessions = json::Value::object();
    sessions.set("sessions", static_cast<int64_t>(cache.sessions));
    sessions.set("hits", static_cast<int64_t>(cache.hits));
    sessions.set("misses", static_cast<int64_t>(cache.misses));
    sessions.set("evictions",
                 static_cast<int64_t>(cache.evictions));
    sessions.set("restoreHits",
                 static_cast<int64_t>(cache.restoreHits));
    sessions.set("restoreMisses",
                 static_cast<int64_t>(cache.restoreMisses));
    sessions.set("restoreFailures",
                 static_cast<int64_t>(cache.restoreFailures));
    sessions.set("saves", static_cast<int64_t>(cache.saves));
    reply.set("sessions", std::move(sessions));
    json::Value process = json::Value::object();
    process.set("rssBytes", static_cast<int64_t>(currentRssBytes()));
    process.set("peakRssBytes",
                static_cast<int64_t>(peakRssBytes()));
    reply.set("process", std::move(process));
    json::Value flight_info = json::Value::object();
    flight_info.set("enabled", flight::flightRecorderEnabled());
    flight_info.set("droppedEvents", static_cast<int64_t>(
                                         flight::droppedFlightEvents()));
    reply.set("flight", std::move(flight_info));
    // The full registry, canonical JSON (same flattening the bench
    // emissions embed).
    Result<json::Value> metrics = json::parse(
        telemetry::metricsJson(telemetry::snapshotMetrics()));
    reply.set("metrics",
              metrics.ok() ? metrics.take() : json::Value::object());
    return reply;
}

void
Daemon::handleMessage(const std::shared_ptr<Connection> &conn,
                      const json::Value &message)
{
    const std::string &verb = message.get("verb").asString();
    if (verb == "ping") {
        json::Value reply = json::Value::object();
        reply.set("type", "pong");
        conn->send(reply);
        return;
    }
    if (verb == "stats") {
        conn->send(statsFrame());
        return;
    }
    if (verb == "status") {
        uint64_t id = static_cast<uint64_t>(
            message.get("job").asInt(0));
        std::optional<JobInfo> info = jobs_->status(id);
        if (!info) {
            conn->send(errorReply(
                formatString("unknown job %llu",
                             static_cast<unsigned long long>(id))));
            return;
        }
        json::Value reply = json::Value::object();
        reply.set("type", "status");
        reply.set("job", static_cast<int64_t>(info->id));
        reply.set("verb", info->verb);
        reply.set("state", info->state);
        reply.set("detail", info->detail);
        conn->send(reply);
        return;
    }
    if (verb == "cancel") {
        uint64_t id = static_cast<uint64_t>(
            message.get("job").asInt(0));
        json::Value reply = json::Value::object();
        reply.set("type", "cancel");
        reply.set("job", static_cast<int64_t>(id));
        reply.set("ok", jobs_->cancel(id));
        conn->send(reply);
        return;
    }
    if (verb == "list") {
        json::Value reply = json::Value::object();
        reply.set("type", "jobs");
        json::Value jobs = json::Value::array();
        for (const JobInfo &info : jobs_->list()) {
            json::Value rec = json::Value::object();
            rec.set("job", static_cast<int64_t>(info.id));
            rec.set("verb", info.verb);
            rec.set("state", info.state);
            rec.set("detail", info.detail);
            jobs.push(std::move(rec));
        }
        reply.set("jobs", std::move(jobs));
        conn->send(reply);
        return;
    }
    if (verb == "shutdown") {
        json::Value reply = json::Value::object();
        reply.set("type", "shutting_down");
        conn->send(reply);
        logInfo("archvald: shutdown requested by client");
        stop();
        return;
    }

    // Job verbs.
    Result<JobRequest> request = JobRequest::fromJson(message);
    if (!request.ok()) {
        conn->send(errorReply(request.errorMessage()));
        return;
    }
    // Hold the write lock across submit so the `accepted` frame hits
    // the wire before any event the job emits.
    std::lock_guard<std::recursive_mutex> lock(conn->writeMutex);
    std::weak_ptr<Connection> weak = conn;
    uint64_t id = jobs_->submit(
        request.take(),
        [weak](const json::Value &event) {
            if (auto c = weak.lock())
                c->send(event);
        },
        conn->id);
    std::optional<JobInfo> info = jobs_->status(id);
    if (info && info->state == "rejected")
        return; // admission control already sent the busy frame
    conn->jobIds.push_back(id);
    json::Value accepted = json::Value::object();
    accepted.set("type", "accepted");
    accepted.set("job", static_cast<int64_t>(id));
    accepted.set("verb", verb);
    conn->send(accepted);
}

} // namespace archval::service
