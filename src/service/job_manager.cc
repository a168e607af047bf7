#include "job_manager.hh"

#include <algorithm>

#include "fuzz/campaign.hh"
#include "harness/bug_hunt.hh"
#include "harness/replay_engine.hh"
#include "support/flight_recorder.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::service
{

namespace
{

json::Value
makeEvent(const char *type, uint64_t job)
{
    json::Value event = json::Value::object();
    event.set("type", type);
    event.set("job", static_cast<int64_t>(job));
    return event;
}

/** Per-verb latency instrument, e.g.
 *  `service.job_run_seconds{verb=replay}`. The `{verb=...}` suffix
 *  is the registry's label convention: the Prometheus endpoint
 *  splits it into proper labels, everything else treats it as part
 *  of the name. */
telemetry::Histogram &
verbHistogram(const char *base, const std::string &verb)
{
    return telemetry::histogram(
        formatString("%s{verb=%s}", base, verb.c_str()));
}

/** Current registry snapshot as a JSON value (metrics events). */
json::Value
metricsValue()
{
    Result<json::Value> parsed = json::parse(
        telemetry::metricsJson(telemetry::snapshotMetrics()));
    return parsed.ok() ? parsed.take() : json::Value::object();
}

/** Summarize one replayed block as a JSON array of play records —
 *  the exact per-trace content a batch entry point would report, so
 *  clients (and the determinism tests) can compare byte-for-byte. */
json::Value
playsValue(const std::vector<harness::PlayResult> &plays, size_t base,
           size_t count)
{
    json::Value out = json::Value::array();
    for (size_t t = 0; t < count; ++t) {
        const harness::PlayResult &play = plays[base + t];
        json::Value rec = json::Value::object();
        rec.set("trace", static_cast<int64_t>(t));
        rec.set("diverged", play.diverged);
        rec.set("cycles", static_cast<int64_t>(play.cycles));
        rec.set("instructions",
                static_cast<int64_t>(play.instructions));
        if (play.skipped)
            rec.set("skipped", true);
        if (play.diverged)
            rec.set("diff", play.diff);
        out.push(std::move(rec));
    }
    return out;
}

} // namespace

std::string
parseBugs(const json::Value &bugs, rtl::BugSet &out)
{
    out.reset();
    if (bugs.isNull())
        return {};
    if (!bugs.isArray())
        return "'bugs' must be an array of names or indices";
    for (const json::Value &item : bugs.items()) {
        if (item.isInt()) {
            int64_t index = item.asInt();
            if (index < 0 ||
                index >= static_cast<int64_t>(rtl::numBugs))
                return formatString("bug index %lld out of range",
                                    static_cast<long long>(index));
            out.set(static_cast<size_t>(index));
            continue;
        }
        if (item.isString()) {
            bool found = false;
            for (size_t i = 0; i < rtl::numBugs; ++i) {
                if (item.asString() ==
                    rtl::bugName(static_cast<rtl::BugId>(i))) {
                    out.set(i);
                    found = true;
                    break;
                }
            }
            if (!found)
                return "unknown bug name '" + item.asString() + "'";
            continue;
        }
        return "'bugs' entries must be names or indices";
    }
    return {};
}

namespace
{

/**
 * Strict integer job field: absent keeps the default, a present
 * field must be a JSON integer — a double or string answers the
 * request with a `bad request` error instead of silently running
 * with the default value (the same posture as DesignSpec::fromJson).
 * A value above @p max_value is a bad request too; the parsed value
 * is clamped to at least @p min_value.
 */
bool
readJobCount(const json::Value &message, const char *field,
             int64_t min_value, int64_t max_value, int64_t &out,
             std::string &error)
{
    if (!message.has(field))
        return true;
    const json::Value &value = message.get(field);
    if (!value.isInt()) {
        error = formatString(
            "bad request: field '%s' must be an integer", field);
        return false;
    }
    if (value.asInt() > max_value) {
        error = formatString(
            "bad request: field '%s' must be at most %lld", field,
            static_cast<long long>(max_value));
        return false;
    }
    out = std::max<int64_t>(min_value, value.asInt());
    return true;
}

} // namespace

Result<JobRequest>
JobRequest::fromJson(const json::Value &message)
{
    JobRequest request;
    request.verb = message.get("verb").asString();
    static const char *const kVerbs[] = {"enumerate", "tour",
                                         "replay", "fuzz", "bughunt"};
    if (std::find(std::begin(kVerbs), std::end(kVerbs),
                  request.verb) == std::end(kVerbs)) {
        return Result<JobRequest>::error("unknown job verb '" +
                                         request.verb + "'");
    }
    Result<DesignSpec> design =
        DesignSpec::fromJson(message.get("design"));
    if (!design.ok())
        return Result<JobRequest>::error(design.errorMessage());
    request.design = design.take();
    std::string bug_error = parseBugs(message.get("bugs"),
                                      request.bugs);
    if (!bug_error.empty())
        return Result<JobRequest>::error(bug_error);
    std::string error;
    int64_t threads = request.threads;
    int64_t stride = static_cast<int64_t>(request.checkpointStride);
    int64_t budget = static_cast<int64_t>(request.randomBudget);
    int64_t round_instructions =
        static_cast<int64_t>(request.roundInstructions);
    int64_t rounds = request.maxRounds;
    int64_t seed = static_cast<int64_t>(request.seed);
    constexpr int64_t kNoMax = INT64_MAX;
    if (!readJobCount(message, "threads", 1, kMaxRequestThreads,
                      threads, error) ||
        !readJobCount(message, "stride", 0, kNoMax, stride, error) ||
        !readJobCount(message, "budget", 0, kNoMax, budget, error) ||
        !readJobCount(message, "roundInstructions", 1, kNoMax,
                      round_instructions, error) ||
        !readJobCount(message, "rounds", 1, UINT32_MAX, rounds,
                      error) ||
        !readJobCount(message, "seed", 0, kNoMax, seed, error)) {
        return Result<JobRequest>::error(error);
    }
    request.threads = static_cast<unsigned>(threads);
    request.checkpointStride = static_cast<size_t>(stride);
    request.randomBudget = static_cast<uint64_t>(budget);
    request.roundInstructions =
        static_cast<uint64_t>(round_instructions);
    request.maxRounds = static_cast<unsigned>(rounds);
    request.seed = static_cast<uint64_t>(seed);
    return request;
}

JobManager::JobManager(SessionCache &sessions, unsigned workers,
                       size_t queue_bound)
    : sessions_(sessions),
      queueBound_(queue_bound > 0 ? queue_bound : kDefaultQueueBound)
{
    {
        // Register the queue gauges at zero so an idle daemon's
        // first scrape already carries every family.
        std::lock_guard<std::mutex> lock(mutex_);
        updateQueueGaugesLocked();
    }
    workers_.reserve(std::max(1u, workers));
    for (unsigned w = 0; w < std::max(1u, workers); ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

JobManager::~JobManager()
{
    shutdown();
}

uint64_t
JobManager::submit(JobRequest request, EventSink sink,
                   uint64_t client)
{
    auto job = std::make_shared<Job>();
    job->client = client;
    job->request = std::move(request);
    job->sink = std::move(sink);
    job->submitNs = telemetry::nowNs();
    bool shutting_down = false;
    bool busy = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->id = nextId_++;
        jobs_[job->id] = job;
        if (stopping_) {
            job->state = "cancelled";
            job->detail = "daemon shutting down";
            shutting_down = true;
        } else if (queued_ >= queueBound_) {
            // Admission control: past the bound the client gets an
            // immediate, explicit busy frame instead of an unbounded
            // queue that one greedy connection can fill for everyone.
            job->state = "rejected";
            job->detail = formatString(
                "busy: job queue is full (%zu queued, bound %zu)",
                queued_, queueBound_);
            busy = true;
        } else {
            std::deque<std::shared_ptr<Job>> &q = queues_[client];
            if (q.empty())
                rotation_.push_back(client);
            q.push_back(job);
            ++queued_;
            updateQueueGaugesLocked();
        }
    }
    if (shutting_down) {
        json::Value event = makeEvent("cancelled", job->id);
        event.set("reason", "daemon shutting down");
        emit(*job, event);
    } else if (busy) {
        json::Value event = makeEvent("error", job->id);
        event.set("busy", true);
        event.set("message", job->detail);
        emit(*job, event);
        telemetry::counter("service.jobs_rejected_busy").add(1);
        flight::recordEvent(flight::EventKind::JobRejected, job->id,
                            client, job->request.verb);
    } else {
        flight::recordEvent(flight::EventKind::JobAccepted, job->id,
                            client, job->request.verb);
        cv_.notify_one();
    }
    return job->id;
}

bool
JobManager::unqueueLocked(const std::shared_ptr<Job> &job)
{
    auto qit = queues_.find(job->client);
    if (qit == queues_.end())
        return false;
    std::deque<std::shared_ptr<Job>> &q = qit->second;
    auto it = std::find(q.begin(), q.end(), job);
    if (it == q.end())
        return false;
    q.erase(it);
    --queued_;
    if (q.empty()) {
        queues_.erase(qit);
        rotation_.erase(std::find(rotation_.begin(), rotation_.end(),
                                  job->client));
    }
    updateQueueGaugesLocked();
    return true;
}

void
JobManager::updateQueueGaugesLocked()
{
    telemetry::gauge("service.queue_depth")
        .set(static_cast<int64_t>(queued_));
    telemetry::gauge("service.queue_clients")
        .set(static_cast<int64_t>(queues_.size()));
    size_t deepest = 0;
    for (const auto &[client, q] : queues_)
        deepest = std::max(deepest, q.size());
    telemetry::gauge("service.client_queue_depth")
        .set(static_cast<int64_t>(deepest));
}

bool
JobManager::cancel(uint64_t id)
{
    std::shared_ptr<Job> job;
    bool was_queued = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        job = it->second;
        if (job->state != "queued" && job->state != "running")
            return false;
        job->cancel.store(true, std::memory_order_relaxed);
        if (job->state == "queued") {
            was_queued = true;
            job->state = "cancelled";
            job->detail = "cancelled before start";
            unqueueLocked(job);
        }
    }
    if (was_queued) {
        emit(*job, makeEvent("cancelled", id));
        flight::recordEvent(flight::EventKind::JobCancelled, id, 0,
                            "cancelled before start");
    }
    telemetry::counter("service.jobs_cancel_requests").add(1);
    return true;
}

std::optional<JobInfo>
JobManager::status(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    const Job &job = *it->second;
    return JobInfo{job.id, job.request.verb, job.state, job.detail};
}

std::vector<JobInfo>
JobManager::list() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobInfo> out;
    out.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_)
        out.push_back(
            JobInfo{job->id, job->request.verb, job->state,
                    job->detail});
    return out;
}

json::Value
JobManager::overviewJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value out = json::Value::object();
    out.set("queued", static_cast<int64_t>(queued_));
    out.set("bound", static_cast<int64_t>(queueBound_));
    out.set("clients", static_cast<int64_t>(queues_.size()));
    json::Value per_client = json::Value::array();
    for (const auto &[client, q] : queues_) {
        json::Value rec = json::Value::object();
        rec.set("client", static_cast<int64_t>(client));
        rec.set("depth", static_cast<int64_t>(q.size()));
        per_client.push(std::move(rec));
    }
    out.set("perClient", std::move(per_client));
    std::map<std::string, int64_t> by_state;
    for (const auto &[id, job] : jobs_)
        ++by_state[job->state];
    json::Value states = json::Value::object();
    for (const auto &[state, count] : by_state)
        states.set(state, count);
    out.set("states", std::move(states));
    return out;
}

std::string
JobManager::activeJobsJson() const
{
    json::Value out = json::Value::array();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, job] : jobs_) {
            if (job->state != "queued" && job->state != "running")
                continue;
            json::Value rec = json::Value::object();
            rec.set("job", static_cast<int64_t>(job->id));
            rec.set("client", static_cast<int64_t>(job->client));
            rec.set("verb", job->request.verb);
            rec.set("state", job->state);
            out.push(std::move(rec));
        }
    }
    return out.serialize();
}

void
JobManager::shutdown()
{
    std::vector<std::shared_ptr<Job>> dropped;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && workers_.empty())
            return;
        stopping_ = true;
        for (auto &[client, q] : queues_) {
            for (auto &job : q) {
                job->state = "cancelled";
                job->detail = "daemon shutting down";
                dropped.push_back(job);
            }
        }
        queues_.clear();
        rotation_.clear();
        queued_ = 0;
        updateQueueGaugesLocked();
        // Running jobs: flip their flags so they wind down promptly.
        for (auto &[id, job] : jobs_) {
            if (job->state == "running")
                job->cancel.store(true, std::memory_order_relaxed);
        }
    }
    cv_.notify_all();
    for (auto &job : dropped)
        emit(*job, makeEvent("cancelled", job->id));
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
JobManager::workerLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [&] { return stopping_ || queued_ > 0; });
            if (queued_ == 0) {
                if (stopping_)
                    return;
                continue;
            }
            // Round-robin across clients: take the head client's
            // oldest job, then move that client to the back of the
            // rotation, so B's single job runs after one of A's
            // backlog, not after all of it.
            const uint64_t client = rotation_.front();
            rotation_.pop_front();
            std::deque<std::shared_ptr<Job>> &q = queues_[client];
            job = q.front();
            q.pop_front();
            --queued_;
            if (q.empty())
                queues_.erase(client);
            else
                rotation_.push_back(client);
            job->state = "running";
            job->runStartNs = telemetry::nowNs();
            updateQueueGaugesLocked();
        }
        // Split latency accounting: time spent waiting for a worker
        // vs. time actually executing, per verb.
        verbHistogram("service.job_queue_wait_seconds",
                      job->request.verb)
            .record(double(job->runStartNs - job->submitNs) / 1e9);
        execute(*job);
        verbHistogram("service.job_run_seconds", job->request.verb)
            .record(double(telemetry::nowNs() - job->runStartNs) /
                    1e9);
    }
}

void
JobManager::emit(Job &job, const json::Value &event)
{
    if (!job.sink)
        return;
    try {
        job.sink(event);
    } catch (...) {
        // A sink failure (client gone) must never unwind a worker.
    }
}

void
JobManager::setState(Job &job, const std::string &state,
                     const std::string &detail)
{
    std::lock_guard<std::mutex> lock(mutex_);
    job.state = state;
    job.detail = detail;
}

void
JobManager::execute(Job &job)
{
    const JobRequest &request = job.request;
    // Every span this worker thread (and any engine worker threads
    // re-installing the scope) records while the job runs carries
    // the job id, so traces filter per job.
    telemetry::JobScope job_scope(job.id);
    telemetry::ScopedSpan job_span("service.job", "id", job.id);
    telemetry::counter("service.jobs_started").add(1);
    flight::recordEvent(flight::EventKind::JobStarted, job.id,
                        job.client, request.verb);

    json::Value started = makeEvent("started", job.id);
    started.set("verb", request.verb);
    emit(job, started);

    auto cancelled = [&] {
        return job.cancel.load(std::memory_order_relaxed);
    };
    auto finish_cancelled = [&] {
        setState(job, "cancelled", "cancelled while running");
        emit(job, makeEvent("cancelled", job.id));
        telemetry::counter("service.jobs_cancelled").add(1);
        flight::recordEvent(flight::EventKind::JobCancelled, job.id,
                            0, "cancelled while running");
    };
    auto finish_error = [&](const std::string &message) {
        setState(job, "failed", message);
        json::Value event = makeEvent("error", job.id);
        event.set("message", message);
        emit(job, event);
        telemetry::counter("service.jobs_failed").add(1);
        flight::recordEvent(flight::EventKind::JobFailed, job.id, 0,
                            message);
    };
    auto progress = [&](const char *phase, json::Value detail) {
        json::Value event = makeEvent("progress", job.id);
        event.set("phase", phase);
        event.set("detail", std::move(detail));
        emit(job, event);
        flight::recordEvent(flight::EventKind::JobProgress, job.id,
                            0, phase);
    };

    try {
        std::shared_ptr<Session> session =
            sessions_.acquire(request.design);
        progress("session", json::Value(session->fingerprint()));

        const Session::Stage stage =
            request.verb == "enumerate" ? Session::Stage::Graph
            : request.verb == "tour" || request.verb == "fuzz"
                ? Session::Stage::Tours
                : Session::Stage::Vectors;
        std::string build_error = session->ensure(stage, &job.cancel);
        if (cancelled())
            return finish_cancelled();
        if (!build_error.empty())
            return finish_error(build_error);

        json::Value result = makeEvent("result", job.id);
        result.set("verb", request.verb);

        if (request.verb == "enumerate") {
            const murphi::EnumStats &stats = session->enumStats();
            result.set("states",
                       static_cast<int64_t>(stats.numStates));
            result.set("edges", static_cast<int64_t>(stats.numEdges));
            result.set("bitsPerState",
                       static_cast<int64_t>(stats.bitsPerState));
            result.set("levels",
                       static_cast<int64_t>(stats.levels.size()));
            // Structural graph hash: lets clients verify byte-equal
            // graphs across memory budgets.
            result.set("graphFingerprint",
                       formatString("%016llx",
                                    static_cast<unsigned long long>(
                                        graph::fingerprint(
                                            session->graph()))));
            // Out-of-core telemetry: all zero for a fully in-memory
            // run, so clients can assert both "it spilled" and "it
            // never fell back" from the result frame alone.
            result.set("spillBytes",
                       static_cast<int64_t>(stats.spillBytesWritten));
            result.set("pageIns",
                       static_cast<int64_t>(stats.pageIns));
            result.set("pageOuts",
                       static_cast<int64_t>(stats.pageOuts));
            result.set("residencyHighWater",
                       static_cast<int64_t>(
                           stats.residencyHighWaterBytes));
            result.set("spillFallbacks",
                       static_cast<int64_t>(stats.spillFallbacks));
        } else if (request.verb == "tour") {
            result.set("tours", static_cast<int64_t>(
                                    session->tours().size()));
            result.set("states", static_cast<int64_t>(
                                     session->enumStats().numStates));
        } else if (request.verb == "replay") {
            progress("replay",
                     json::Value(static_cast<int64_t>(
                         session->vectors().size())));
            harness::ReplayOptions options;
            options.numThreads = request.threads;
            options.checkpointStride = request.checkpointStride;
            options.warmCache = session->warmCache();
            options.cancelFlag = &job.cancel;
            harness::ReplayEngine engine(session->config(), options);
            // A bug-free donor block leads every batch: it feeds the
            // session warm cache on the first run and collapses to
            // warm copies on every repeat. The client-visible block
            // is the last one.
            std::vector<rtl::BugSet> bug_sets{rtl::BugSet{}};
            if (request.bugs.any())
                bug_sets.push_back(request.bugs);
            std::vector<harness::PlayResult> plays =
                engine.playAll(session->vectors(), bug_sets);
            if (cancelled())
                return finish_cancelled();
            const size_t nt = session->vectors().size();
            const size_t base = (bug_sets.size() - 1) * nt;
            uint64_t diverged = 0;
            std::string first_diff;
            for (size_t t = 0; t < nt; ++t) {
                if (plays[base + t].diverged) {
                    if (diverged == 0)
                        first_diff = plays[base + t].diff;
                    ++diverged;
                }
            }
            const harness::ReplayStats &stats = engine.stats();
            result.set("traces", static_cast<int64_t>(nt));
            result.set("diverged", static_cast<int64_t>(diverged));
            if (diverged > 0)
                result.set("firstDivergence", first_diff);
            result.set("batchCycles",
                       static_cast<int64_t>(stats.batchCycles));
            result.set("simulatedCycles",
                       static_cast<int64_t>(stats.simulatedCycles));
            result.set("cyclesAvoided",
                       static_cast<int64_t>(stats.cyclesAvoided));
            json::Value warm = json::Value::object();
            warm.set("lookups",
                     static_cast<int64_t>(stats.warmLookups));
            warm.set("hits", static_cast<int64_t>(stats.warmHits));
            warm.set("copies",
                     static_cast<int64_t>(stats.warmCopies));
            warm.set("chainHits",
                     static_cast<int64_t>(stats.warmChainHits));
            warm.set("resumeCycles",
                     static_cast<int64_t>(stats.warmResumeCycles));
            warm.set("inserts",
                     static_cast<int64_t>(stats.warmInserts));
            result.set("warm", std::move(warm));
            result.set("plays", playsValue(plays, base, nt));
        } else if (request.verb == "fuzz") {
            fuzz::CampaignOptions options;
            options.workers = request.threads;
            options.roundInstructions = request.roundInstructions;
            options.maxRounds = request.maxRounds;
            options.seed = request.seed;
            options.cancelFlag = &job.cancel;
            fuzz::CampaignRunner runner(session->config(),
                                        session->model(),
                                        session->graph(), options);
            fuzz::CampaignResult campaign =
                runner.run(request.bugs, session->tours());
            if (cancelled() && !campaign.detected)
                return finish_cancelled();
            result.set("detected", campaign.detected);
            result.set("cancelled", campaign.cancelled);
            result.set("instructions", static_cast<int64_t>(
                                           campaign.instructions));
            result.set("cycles",
                       static_cast<int64_t>(campaign.cycles));
            result.set("iterations",
                       static_cast<int64_t>(campaign.iterations));
            result.set("coverage", campaign.coverageFraction);
            if (campaign.detected)
                result.set("detail", campaign.detail);
        } else if (request.verb == "bughunt") {
            harness::ReplayOptions options;
            options.numThreads = request.threads;
            options.checkpointStride = request.checkpointStride;
            options.cancelFlag = &job.cancel;
            harness::BugHunt hunt(session->config(), session->model(),
                                  session->graph(),
                                  session->vectors(), options);
            hunt.setWarmCache(session->warmCache());
            json::Value hunts = json::Value::array();
            bool any_detected = false;
            for (size_t i = 0; i < rtl::numBugs; ++i) {
                if (!request.bugs.test(i))
                    continue;
                if (cancelled())
                    return finish_cancelled();
                harness::HuntResult hr = hunt.hunt(
                    static_cast<rtl::BugId>(i),
                    request.randomBudget, request.seed);
                json::Value rec = json::Value::object();
                rec.set("bug", rtl::bugName(hr.bug));
                auto arm = [&](const char *name,
                               const harness::Detection &d) {
                    json::Value a = json::Value::object();
                    a.set("detected", d.detected);
                    a.set("instructions",
                          static_cast<int64_t>(d.instructions));
                    if (d.detected)
                        a.set("detail", d.detail);
                    rec.set(name, std::move(a));
                };
                arm("tour", hr.tour);
                arm("random", hr.random);
                arm("directed", hr.directed);
                any_detected = any_detected || hr.tour.detected ||
                               hr.random.detected ||
                               hr.directed.detected;
                hunts.push(std::move(rec));
            }
            result.set("detected", any_detected);
            result.set("hunts", std::move(hunts));
        }

        if (cancelled())
            return finish_cancelled();

        json::Value metrics = makeEvent("metrics", job.id);
        metrics.set("metrics", metricsValue());
        emit(job, metrics);

        std::string verdict = "ok";
        if (result.get("diverged").asInt(0) > 0 ||
            result.get("detected").asBool(false))
            verdict = "detected";
        result.set("verdict", verdict);
        setState(job, "done", verdict);
        // Count before emitting: a client that has seen the result
        // frame must find the job in every observability surface.
        telemetry::counter("service.jobs_done").add(1);
        flight::recordEvent(flight::EventKind::JobDone, job.id, 0,
                            verdict);
        emit(job, result);
        // Park the session's products (graph, tours, warm entries)
        // on disk so a daemon restart replays warm. No-op when
        // persistence is off or nothing changed since the last save.
        session->persist();
    } catch (const FatalError &err) {
        finish_error(err.what());
    } catch (const std::exception &err) {
        finish_error(std::string("internal error: ") + err.what());
    }
}

} // namespace archval::service
