/**
 * @file
 * `archval_client` — submit a job to a running archvald and stream
 * its events.
 *
 * Usage:
 *   archval_client --socket PATH <verb> [options]
 *   archval_client --tcp PORT    <verb> [options]
 *
 * Verbs: enumerate | tour | replay | fuzz | bughunt (streamed jobs)
 *        ping | status | cancel | list | stats | shutdown (single
 *        reply; `stats --watch` refreshes a live dashboard instead)
 *
 * Job options: --preset small|full, --line-words N, --max-states N,
 * --memory-budget-mb N, --spill-dir PATH, --vector-seed N,
 * --bugs bug1,bug4 (names or indices), --threads N, --stride N,
 * --budget N, --rounds N, --round-instructions N, --seed N.
 * Control options: --job N.
 * `--request JSON` sends a raw request object instead (the verb
 * argument is still required and overrides the object's).
 * `--json` prints each received event as one raw JSON line.
 *
 * Exit code mirrors the verdict: 0 clean, 1 usage/transport error,
 * 2 divergence or bug detected, 3 job failed, 4 job cancelled.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/protocol.hh"
#include "support/json.hh"

namespace
{

using archval::json::Value;
using archval::service::FrameReader;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s (--socket PATH | --tcp PORT) VERB "
                 "[options]\n"
                 "run '%s --help' for the option list\n",
                 argv0, argv0);
    return 1;
}

void
help(const char *argv0)
{
    std::printf(
        "usage: %s (--socket PATH | --tcp PORT) VERB [options]\n"
        "\n"
        "job verbs (stream events until the terminal one):\n"
        "  enumerate | tour | replay | fuzz | bughunt\n"
        "control verbs (one reply frame):\n"
        "  ping | status --job N | cancel --job N | list | stats | "
        "shutdown\n"
        "\n"
        "transport:\n"
        "  --socket PATH        unix socket of a running archvald\n"
        "  --tcp PORT           loopback TCP port instead\n"
        "  --json               print raw protocol frames, one per "
        "line\n"
        "  --request JSON       send a raw request object (ignores "
        "VERB options)\n"
        "  --watch              with the stats verb: redraw a live\n"
        "                       dashboard until interrupted\n"
        "  --interval-ms N      stats --watch refresh period "
        "(default 1000)\n"
        "\n"
        "design fingerprint (selects/creates the daemon session):\n"
        "  --preset NAME        model preset (default small)\n"
        "  --line-words N       cache line words\n"
        "  --max-states N       enumeration state cap\n"
        "  --memory-budget-mb N out-of-core enumeration residency "
        "budget in MiB (not part of the fingerprint)\n"
        "  --memory-budget-kb N same, in KiB\n"
        "  --spill-dir PATH     enumeration spill root (not part of "
        "the fingerprint)\n"
        "  --vector-seed N      vector generation seed\n"
        "\n"
        "job options:\n"
        "  --bugs a,b,...       inject bugs (bug1..bug6 or 0-based "
        "indices)\n"
        "  --threads N          replay/fuzz workers\n"
        "  --stride N           replay checkpoint stride\n"
        "  --budget N           bughunt random budget "
        "(instructions)\n"
        "  --rounds N           fuzz campaign rounds\n"
        "  --round-instructions N  fuzz instructions per round\n"
        "  --seed N             fuzz/bughunt seed\n"
        "  --job N              target job id for status/cancel\n"
        "\n"
        "exit codes: 0 clean, 1 usage/transport, 2 bug detected, "
        "3 job error, 4 cancelled\n",
        argv0);
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
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

int
connectTcp(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Block for the next event frame. @return false on disconnect or
 *  protocol damage. */
bool
nextEvent(int fd, FrameReader &reader, Value &event)
{
    std::string payload;
    char buf[64 * 1024];
    while (true) {
        FrameReader::Status status = reader.next(payload);
        if (status == FrameReader::Status::Ready) {
            auto parsed = archval::json::parse(payload);
            if (!parsed.ok()) {
                std::fprintf(stderr, "archval_client: bad event: %s\n",
                             parsed.errorMessage().c_str());
                return false;
            }
            event = parsed.take();
            return true;
        }
        if (status == FrameReader::Status::Error) {
            std::fprintf(stderr, "archval_client: %s\n",
                         reader.error().c_str());
            return false;
        }
        // recvRetry retries EINTR, so a signal landing mid-stream
        // (SIGWINCH, a profiler's SIGPROF, ...) cannot masquerade as
        // a server disconnect and kill the CLI between two events.
        ssize_t n = archval::service::recvRetry(fd, buf, sizeof(buf));
        if (n <= 0)
            return false; // orderly shutdown or a real error
        reader.feed(buf, static_cast<size_t>(n));
    }
}

void
printEvent(const Value &event, bool raw)
{
    if (raw) {
        std::printf("%s\n", event.serialize().c_str());
        std::fflush(stdout);
        return;
    }
    const std::string &type = event.get("type").asString();
    long long job = event.get("job").asInt(-1);
    if (type == "accepted") {
        std::printf("job %lld accepted (%s)\n", job,
                    event.get("verb").asString().c_str());
    } else if (type == "started") {
        std::printf("job %lld started\n", job);
    } else if (type == "progress") {
        std::printf("job %lld progress %s %s\n", job,
                    event.get("phase").asString().c_str(),
                    event.get("detail").serialize().c_str());
    } else if (type == "metrics") {
        std::printf("job %lld metrics (%zu entries)\n", job,
                    event.get("metrics").members().size());
    } else if (type == "result") {
        Value summary = event;
        // The per-trace plays array is for machine comparison; keep
        // the human view short.
        if (summary.has("plays"))
            summary.set("plays",
                        Value(static_cast<int64_t>(
                            event.get("plays").items().size())));
        std::printf("job %lld result %s\n", job,
                    summary.serialize().c_str());
    } else if (type == "error") {
        std::printf("job %lld error: %s\n", job,
                    event.get("message").asString().c_str());
    } else if (type == "cancelled") {
        std::printf("job %lld cancelled\n", job);
    } else {
        std::printf("%s\n", event.serialize().c_str());
    }
    std::fflush(stdout);
}

/** Match a label-suffixed histogram sample key exported by the stats
 *  frame, e.g. `service.job_run_seconds{verb=replay}.count`.
 *  @return true and fill @p verb / @p field on a match. */
bool
parseVerbMetric(const std::string &key, const char *base,
                std::string &verb, std::string &field)
{
    const std::string prefix = std::string(base) + "{verb=";
    if (key.compare(0, prefix.size(), prefix) != 0)
        return false;
    size_t close = key.find('}', prefix.size());
    if (close == std::string::npos || close + 1 >= key.size() ||
        key[close + 1] != '.')
        return false;
    verb = key.substr(prefix.size(), close - prefix.size());
    field = key.substr(close + 2);
    return true;
}

/** One dashboard row per job class (verb). */
struct JobClassRow {
    uint64_t done = 0;
    double waitSum = 0.0;
    uint64_t waitCount = 0;
    double runSum = 0.0;
    double runP90 = 0.0;
};

void
printStatsDashboard(const Value &frame, bool clear)
{
    if (clear)
        std::printf("\x1b[H\x1b[2J");
    const Value &queue = frame.get("queue");
    const Value &sessions = frame.get("sessions");
    const Value &process = frame.get("process");
    std::printf("archvald up %.1fs  queue %lld/%lld (%lld clients)  "
                "sessions %lld hit %lld miss %lld  "
                "rss %.1f MiB peak %.1f MiB\n",
                frame.get("uptimeSeconds").asDouble(),
                (long long)queue.get("queued").asInt(),
                (long long)queue.get("bound").asInt(),
                (long long)queue.get("clients").asInt(),
                (long long)sessions.get("sessions").asInt(),
                (long long)sessions.get("hits").asInt(),
                (long long)sessions.get("misses").asInt(),
                process.get("rssBytes").asDouble() /
                    (1024.0 * 1024.0),
                process.get("peakRssBytes").asDouble() /
                    (1024.0 * 1024.0));
    const Value &states = queue.get("states");
    if (!states.members().empty()) {
        std::printf("jobs:");
        for (const auto &kv : states.members())
            std::printf(" %s=%lld", kv.first.c_str(),
                        (long long)kv.second.asInt());
        std::printf("\n");
    }

    std::map<std::string, JobClassRow> rows;
    for (const auto &kv : frame.get("metrics").members()) {
        std::string verb, field;
        if (parseVerbMetric(kv.first, "service.job_run_seconds",
                            verb, field)) {
            JobClassRow &row = rows[verb];
            if (field == "count")
                row.done = (uint64_t)kv.second.asInt();
            else if (field == "sum")
                row.runSum = kv.second.asDouble();
            else if (field == "p90")
                row.runP90 = kv.second.asDouble();
        } else if (parseVerbMetric(kv.first,
                                   "service.job_queue_wait_seconds",
                                   verb, field)) {
            JobClassRow &row = rows[verb];
            if (field == "count")
                row.waitCount = (uint64_t)kv.second.asInt();
            else if (field == "sum")
                row.waitSum = kv.second.asDouble();
        }
    }
    std::printf("%-10s %8s %12s %12s %12s\n", "VERB", "DONE",
                "WAIT-MS", "RUN-MS", "RUN-P90-MS");
    for (const auto &kv : rows) {
        const JobClassRow &row = kv.second;
        double wait_ms = row.waitCount
                             ? row.waitSum / (double)row.waitCount * 1e3
                             : 0.0;
        double run_ms =
            row.done ? row.runSum / (double)row.done * 1e3 : 0.0;
        std::printf("%-10s %8llu %12.2f %12.2f %12.2f\n",
                    kv.first.c_str(),
                    (unsigned long long)row.done, wait_ms, run_ms,
                    row.runP90 * 1e3);
    }
    if (rows.empty())
        std::printf("(no jobs completed yet)\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    int tcp_port = -1;
    std::string verb;
    bool raw = false;
    bool watch = false;
    int64_t interval_ms = 1000;
    std::string raw_request;

    Value request = Value::object();
    Value design = Value::object();
    Value bugs = Value::array();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        auto intValue = [&](int64_t &out) {
            const char *v = value();
            if (!v)
                return false;
            out = std::atoll(v);
            return true;
        };
        int64_t n = 0;
        if (arg == "--socket") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            socket_path = v;
        } else if (arg == "--tcp") {
            if (!intValue(n))
                return usage(argv[0]);
            tcp_port = static_cast<int>(n);
        } else if (arg == "--json") {
            raw = true;
        } else if (arg == "--watch") {
            watch = true;
        } else if (arg == "--interval-ms") {
            if (!intValue(n))
                return usage(argv[0]);
            interval_ms = std::max(int64_t{50}, n);
        } else if (arg == "--request") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            raw_request = v;
        } else if (arg == "--preset") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            design.set("preset", std::string(v));
        } else if (arg == "--line-words") {
            if (!intValue(n))
                return usage(argv[0]);
            design.set("lineWords", n);
        } else if (arg == "--max-states") {
            if (!intValue(n))
                return usage(argv[0]);
            design.set("maxStates", n);
        } else if (arg == "--memory-budget-mb") {
            if (!intValue(n))
                return usage(argv[0]);
            design.set("memoryBudgetBytes", n * (int64_t{1} << 20));
        } else if (arg == "--memory-budget-kb") {
            if (!intValue(n))
                return usage(argv[0]);
            design.set("memoryBudgetBytes", n * (int64_t{1} << 10));
        } else if (arg == "--spill-dir") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            design.set("spillDir", std::string(v));
        } else if (arg == "--vector-seed") {
            if (!intValue(n))
                return usage(argv[0]);
            design.set("vectorSeed", n);
        } else if (arg == "--bugs") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            std::string list = v;
            size_t pos = 0;
            while (pos <= list.size()) {
                size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos)
                    bugs.push(
                        Value(list.substr(pos, comma - pos)));
                pos = comma + 1;
            }
        } else if (arg == "--threads") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("threads", n);
        } else if (arg == "--stride") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("stride", n);
        } else if (arg == "--budget") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("budget", n);
        } else if (arg == "--rounds") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("rounds", n);
        } else if (arg == "--round-instructions") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("roundInstructions", n);
        } else if (arg == "--seed") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("seed", n);
        } else if (arg == "--job") {
            if (!intValue(n))
                return usage(argv[0]);
            request.set("job", n);
        } else if (arg == "--help") {
            help(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (verb.empty()) {
            verb = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (verb.empty() || (socket_path.empty() && tcp_port < 0))
        return usage(argv[0]);

    if (!raw_request.empty()) {
        auto parsed = archval::json::parse(raw_request);
        if (!parsed.ok()) {
            std::fprintf(stderr, "archval_client: --request: %s\n",
                         parsed.errorMessage().c_str());
            return 1;
        }
        request = parsed.take();
    } else {
        if (!design.members().empty())
            request.set("design", std::move(design));
        if (!bugs.items().empty())
            request.set("bugs", std::move(bugs));
    }
    request.set("verb", verb);

    int fd = socket_path.empty() ? connectTcp(tcp_port)
                                 : connectUnix(socket_path);
    if (fd < 0) {
        std::fprintf(stderr, "archval_client: cannot connect\n");
        return 1;
    }
    const std::string wire = archval::service::encodeFrame(request);
    if (!archval::service::sendAll(fd, wire.data(), wire.size())) {
        std::fprintf(stderr, "archval_client: send failed\n");
        ::close(fd);
        return 1;
    }

    static const char *const kJobVerbs[] = {
        "enumerate", "tour", "replay", "fuzz", "bughunt"};
    bool is_job = false;
    for (const char *v : kJobVerbs)
        is_job = is_job || verb == v;

    FrameReader reader;
    Value event;
    int exit_code = 1;
    if (verb == "stats") {
        // One snapshot, or a live dashboard: keep the connection and
        // re-request a fresh frame every interval until interrupted
        // or the daemon goes away.
        while (nextEvent(fd, reader, event)) {
            if (event.get("type").asString() == "error") {
                printEvent(event, raw);
                exit_code = 3;
                break;
            }
            if (raw)
                printEvent(event, true);
            else
                printStatsDashboard(event, watch);
            exit_code = 0;
            if (!watch)
                break;
            ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
            if (!archval::service::sendAll(fd, wire.data(),
                                           wire.size())) {
                std::fprintf(stderr,
                             "archval_client: daemon went away\n");
                exit_code = 1;
                break;
            }
        }
    } else if (!is_job) {
        // Control verbs: one reply frame.
        if (nextEvent(fd, reader, event)) {
            printEvent(event, raw);
            exit_code =
                event.get("type").asString() == "error" ? 3 : 0;
        }
    } else {
        long long job_id = -1;
        while (nextEvent(fd, reader, event)) {
            printEvent(event, raw);
            const std::string &type = event.get("type").asString();
            if (type == "accepted") {
                job_id = event.get("job").asInt(-1);
                continue;
            }
            if (job_id >= 0 &&
                event.get("job").asInt(-1) != job_id)
                continue; // another client's chatter (not expected)
            if (type == "result") {
                exit_code = event.get("verdict").asString() ==
                                    "detected"
                                ? 2
                                : 0;
                break;
            }
            if (type == "error") {
                exit_code = 3;
                break;
            }
            if (type == "cancelled") {
                exit_code = 4;
                break;
            }
        }
    }
    ::close(fd);
    return exit_code;
}
