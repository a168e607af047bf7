#include "session_cache.hh"

#include <algorithm>

#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::service
{

std::string
DesignSpec::fingerprint() const
{
    return formatString(
        "preset=%s lineWords=%u modelBranches=%d dualIssue=%d "
        "maxStates=%llu maxInstr=%llu vectorSeed=%llu",
        preset.c_str(), lineWords, modelBranches, dualIssue,
        static_cast<unsigned long long>(maxStates),
        static_cast<unsigned long long>(maxInstructionsPerTrace),
        static_cast<unsigned long long>(vectorSeed));
}

rtl::PpConfig
DesignSpec::toConfig() const
{
    rtl::PpConfig config;
    if (preset == "small")
        config = rtl::PpConfig::smallPreset();
    else if (preset == "full")
        config = rtl::PpConfig::fullPreset();
    else
        fatal("unknown design preset '" + preset + "'");
    if (lineWords > 0)
        config.lineWords = lineWords;
    if (modelBranches >= 0)
        config.modelBranches = modelBranches != 0;
    if (dualIssue >= 0)
        config.dualIssue = dualIssue != 0;
    return config;
}

namespace
{

/** "bad request" prefix: the daemon forwards these verbatim as the
 *  error frame, so the client sees which field it got wrong. */
std::string
fieldError(const char *field, const char *want)
{
    return formatString("bad request: design field '%s' must be %s",
                        field, want);
}

/**
 * Strict non-negative integer field: absent keeps the default, a
 * present field must be a JSON integer (a double like `500000.0`
 * or a string is an error — the old silent fallback-to-default
 * changed the fingerprint, and with it the results, without any
 * indication to the client).
 */
bool
readCount(const json::Value &design, const char *field,
          uint64_t &out, std::string &error,
          uint64_t max_value = UINT64_MAX)
{
    if (!design.has(field))
        return true;
    const json::Value &value = design.get(field);
    if (!value.isInt() || value.asInt() < 0) {
        error = fieldError(field, "a non-negative integer");
        return false;
    }
    if (static_cast<uint64_t>(value.asInt()) > max_value) {
        error = formatString(
            "bad request: design field '%s' must be at most %llu",
            field, static_cast<unsigned long long>(max_value));
        return false;
    }
    out = static_cast<uint64_t>(value.asInt());
    return true;
}

/** Strict boolean field (absent keeps the default). */
bool
readFlag(const json::Value &design, const char *field, bool &out,
         std::string &error)
{
    if (!design.has(field))
        return true;
    const json::Value &value = design.get(field);
    if (!value.isBool()) {
        error = fieldError(field, "a boolean");
        return false;
    }
    out = value.asBool();
    return true;
}

} // namespace

Result<DesignSpec>
DesignSpec::fromJson(const json::Value &design)
{
    DesignSpec spec;
    if (design.isNull())
        return spec; // no design object: all defaults
    if (!design.isObject()) {
        return Result<DesignSpec>::error(
            "bad request: 'design' must be an object");
    }
    std::string error;
    if (design.has("preset")) {
        if (!design.get("preset").isString())
            return Result<DesignSpec>::error(
                fieldError("preset", "a string"));
        spec.preset = design.get("preset").asString();
    }
    uint64_t line_words = spec.lineWords;
    bool model_branches = false;
    bool dual_issue = false;
    if (!readCount(design, "lineWords", line_words, error,
                   rtl::PpConfig::maxLineWords) ||
        !readCount(design, "maxStates", spec.maxStates, error) ||
        !readCount(design, "memoryBudgetBytes",
                   spec.memoryBudgetBytes, error) ||
        !readCount(design, "maxInstructionsPerTrace",
                   spec.maxInstructionsPerTrace, error) ||
        !readCount(design, "vectorSeed", spec.vectorSeed, error) ||
        !readFlag(design, "modelBranches", model_branches, error) ||
        !readFlag(design, "dualIssue", dual_issue, error)) {
        return Result<DesignSpec>::error(error);
    }
    if (design.has("spillDir")) {
        if (!design.get("spillDir").isString())
            return Result<DesignSpec>::error(
                fieldError("spillDir", "a string"));
        spec.spillDir = design.get("spillDir").asString();
    }
    spec.lineWords = static_cast<unsigned>(line_words);
    if (design.has("modelBranches"))
        spec.modelBranches = model_branches ? 1 : 0;
    if (design.has("dualIssue"))
        spec.dualIssue = dual_issue ? 1 : 0;
    return spec;
}

Session::Session(const DesignSpec &spec)
    : spec_(spec), fingerprint_(spec.fingerprint()),
      config_(spec.toConfig())
{
}

void
Session::persist()
{
    if (store_)
        store_->save(*this);
}

std::string
Session::ensure(Stage stage, const std::atomic<bool> *cancel)
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    // First use of a persisted session: try the disk restore before
    // building anything. Every failure mode inside loadLocked()
    // (missing file, CRC damage, stale version, foreign fingerprint)
    // leaves the session cold and falls through to the normal build.
    if (store_ && !restoreTried_) {
        restoreTried_ = true;
        store_->loadLocked(*this);
    }
    try {
        if (!graph_) {
            if (!model_)
                model_ = std::make_unique<rtl::PpFsmModel>(config_);
            murphi::EnumOptions options;
            options.maxStates = spec_.maxStates;
            options.cancelFlag = cancel;
            options.memoryBudgetBytes = spec_.memoryBudgetBytes;
            options.spillDir = spec_.spillDir;
            murphi::Enumerator enumerator(*model_, options);
            Result<graph::StateGraph> result = enumerator.run();
            if (!result.ok())
                return result.errorMessage();
            graph_ = result.take();
            enumStats_ = enumerator.stats();
        }
        if (stage == Stage::Graph)
            return {};
        if (!tours_) {
            graph::TourOptions options;
            options.maxInstructionsPerTrace =
                spec_.maxInstructionsPerTrace;
            graph::TourGenerator generator(*graph_, options);
            auto tours = generator.run();
            std::string check =
                graph::checkTourCoverage(*graph_, tours);
            if (!check.empty())
                return "tour coverage check failed: " + check;
            tours_ = std::move(tours);
            tourStats_ = generator.stats();
        }
        if (stage == Stage::Tours)
            return {};
        if (!vectors_) {
            vecgen::VectorGenerator generator(*model_,
                                              spec_.vectorSeed);
            vectors_ = generator.generateAll(*graph_, *tours_);
        }
        // Restored rows are sized by the restored tours, one vector
        // each.
        if (!warm_)
            warm_ = std::make_shared<harness::WarmRows>(vectors_->size());
        return {};
    } catch (const FatalError &err) {
        // Build machinery reports bad input by throwing; to a job it
        // is an error result, never a dead daemon.
        return err.what();
    }
}

SessionCache::SessionCache(size_t max_sessions,
                           const std::string &session_dir,
                           size_t session_dir_cap_bytes)
    : store_(std::make_unique<SessionStore>(session_dir,
                                            session_dir_cap_bytes)),
      maxSessions_(std::max<size_t>(1, max_sessions))
{
}

std::shared_ptr<Session>
SessionCache::acquire(const DesignSpec &spec)
{
    const std::string key = spec.fingerprint();
    std::lock_guard<std::mutex> lock(mutex_);
    for (Slot &slot : slots_) {
        if (slot.session->fingerprint() == key) {
            slot.lastUse = ++clock_;
            ++hits_;
            telemetry::counter("service.session_hits").add(1);
            return slot.session;
        }
    }
    ++misses_;
    telemetry::counter("service.session_misses").add(1);
    // Construction validates the spec (throws FatalError on an
    // unknown preset) before anything is inserted.
    auto session = std::make_shared<Session>(spec);
    if (store_->enabled())
        session->setStore(store_.get());
    if (slots_.size() >= maxSessions_) {
        size_t victim = 0;
        for (size_t i = 1; i < slots_.size(); ++i) {
            if (slots_[i].lastUse < slots_[victim].lastUse)
                victim = i;
        }
        slots_.erase(slots_.begin() + static_cast<long>(victim));
        ++evictions_;
    }
    slots_.push_back(Slot{session, ++clock_});
    return session;
}

SessionCache::Stats
SessionCache::stats() const
{
    Stats s;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.sessions = slots_.size();
    }
    const SessionStore::Stats store = store_->stats();
    s.restoreHits = store.restoreHits;
    s.restoreMisses = store.restoreMisses;
    s.restoreFailures = store.restoreFailures;
    s.saves = store.saves;
    return s;
}

} // namespace archval::service
