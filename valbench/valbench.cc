/**
 * @file
 * Repository benchmark program.
 *
 * Runs one workload of the validation pipeline (model -> enumerate ->
 * tour -> vectors -> replay against the ISA spec) in this process, as
 * one closed-loop caller issuing one job at a time. Every call into a
 * layer is timed from outside it (steady-clock wall, getrusage CPU,
 * per-call peak RSS) and every output is checked outside the timed
 * part. The last line of stdout is one JSON object; run.py compares
 * its "checks" against the committed expected values and turns it
 * into the benchmark result.
 *
 * Timed jobs are single-threaded and short, so a run holds dozens of
 * them and reports their median wall (wall_s), with the 10th and 90th
 * percentiles beside it: on a shared host a job's speed varies by
 * +-15% from one second to the next, and a job with more threads than
 * its share of the CPUs measures the scheduler.
 *
 *   valbench --workload pp_flow_full|pp_bug_matrix|pp_enum_spill
 *            --seed N --seconds S [--trace 0|1] [--preset full|small]
 *            [--hash-vectors 0|1] [--scratch DIR]
 *
 * With --trace 1 (and ARCHVAL_TRACE=<file>) every call records one
 * span; the run reports per-layer metrics for one traced job, writes
 * the trace, then repeats the job untraced to measure the overhead.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/validation_flow.hh"
#include "harness/replay_engine.hh"
#include "murphi/enumerator.hh"
#include "rtl/faults.hh"
#include "support/json.hh"
#include "support/memusage.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"
#include "vecgen/trace_io.hh"

using namespace archval;

namespace
{

/** Worker threads for the untimed checks (a 4-CPU host). */
constexpr unsigned kThreads = 4;
/** Worker threads of a timed job. On a shared host every thread more
 *  than the benchmark's fair share of CPUs measures the scheduler. */
constexpr unsigned kJobThreads = 1;
/** pp_bug_matrix times one slice of the traces per job (trace t is in
 *  slice t mod kSlices), so a run times many short jobs. */
constexpr size_t kSlices = 64;
/** Where set-up is model construction (about a microsecond, too short
 *  to time alone), one set-up sample times a batch of constructions;
 *  a run takes the median of several samples. */
constexpr int kSetupBatch = 1000;
constexpr int kSetupSamples = 21;
/** Per-trace instruction limit of the paper's split tours. */
constexpr uint64_t kTourLimit = 10000;
/** Fewest timed pp_enum_spill jobs of a run; a pp_bug_matrix run
 *  times at least one job per slice. */
constexpr size_t kSpillMinJobs = 9;
constexpr double kMB = 1e6;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;
    /** Hash the serialized stimulus of every trace (about 20 s of CPU
     *  on the full preset): only worth it when a committed hash for
     *  the seed will be compared. */
    bool hashVectors = true;
    std::string scratch = ".";
};

/** FNV-1a over little-endian words and length-prefixed strings. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(unsigned char b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }

    void
    u64(uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte((value >> (8 * i)) & 0xff);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

std::string
hex(uint64_t value)
{
    return formatString("%016llx", static_cast<unsigned long long>(value));
}

/** The @p q quantile (0..1) of @p v, interpolating between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - double(lo)) * (v[lo + 1] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
rate(double units, double seconds)
{
    return seconds > 0 ? units / seconds : 0.0;
}

double
rusageCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Reset this process's VmHWM. @return false when the kernel refuses. */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return bool(out);
}

std::string
readFirstLine(const char *path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

uint64_t
memTotalBytes()
{
    std::ifstream in("/proc/meminfo");
    std::string key;
    uint64_t kb = 0;
    while (in >> key >> kb) {
        if (key == "MemTotal:")
            return kb * 1024;
        in.ignore(1 << 10, '\n');
    }
    return 0;
}

/** What a timed call is: one of the four pipeline layers, set-up, or
 *  the output checks (spanned so the trace covers the whole run). */
enum Layer
{
    Murphi,
    Graph,
    Vecgen,
    Harness,
    NumPipelineLayers,
    Setup = NumPipelineLayers,
    Check,
    NumLayers,
};

// Span names are captured by pointer, so they must be literals.
constexpr const char *kSpanNames[NumLayers] = {
    "bench.murphi",  "bench.graph", "bench.vecgen",
    "bench.harness", "bench.setup", "bench.check",
};
constexpr const char *kLayerNames[NumPipelineLayers] = {
    "murphi", "graph", "vecgen", "harness",
};

/** Resource use of the calls into one layer. */
struct LayerUsage
{
    double wall = 0;
    double cpu = 0;
    double rssDeltaMb = 0; ///< largest per-call peak-RSS growth
    unsigned threads = 1;
};

/** State and accounting of one benchmark run. */
class Run
{
  public:
    explicit Run(Args args)
        : config(args.small ? rtl::PpConfig::smallPreset()
                            : rtl::PpConfig::fullPreset()),
          args_(std::move(args)), peakResetWorks_(resetPeakRss()),
          loadAtStart_(readFirstLine("/proc/loadavg"))
    {
    }

    const Args &args() const { return args_; }

    /**
     * Call into @p layer, which runs @p threads workers: one span,
     * wall and CPU time, and the peak-RSS growth across the call.
     * @return the call's wall seconds.
     */
    double
    call(Layer layer, unsigned threads, const std::function<void()> &fn)
    {
        notePeak();
        if (peakResetWorks_)
            resetPeakRss();
        size_t rss_before = currentRssBytes();
        double cpu_before = rusageCpuSeconds();
        WallTimer timer;
        {
            telemetry::ScopedSpan span(kSpanNames[layer]);
            fn();
        }
        double wall = timer.seconds();
        double cpu = rusageCpuSeconds() - cpu_before;
        size_t after = peakResetWorks_ ? peakRssBytes()
                                       : currentRssBytes();
        notePeak();

        LayerUsage &u = layers_[layer];
        u.wall += wall;
        u.cpu += cpu;
        u.threads = threads;
        u.rssDeltaMb = std::max(
            u.rssDeltaMb,
            double(after > rss_before ? after - rss_before : 0) / kMB);
        spannedSeconds_ += wall;
        return wall;
    }

    /** Count @p ops operations failed because of @p what. */
    void
    fail(uint64_t ops, const std::string &what)
    {
        failed_ += ops;
        errors_.push_back(what);
        std::fprintf(stderr, "valbench: check failed: %s\n",
                     what.c_str());
    }

    /** Count @p ops operations attempted. */
    void attempt(uint64_t ops) { attempted_ += ops; }

    /**
     * Account one job of @p ops operations whose output values are
     * @p checks. The first job's values are the run's report; a later
     * job must reproduce every value it reports or its operations
     * fail.
     */
    void
    settle(json::Value checks, uint64_t ops)
    {
        attempt(ops);
        if (checks_.isNull()) {
            checks_ = std::move(checks);
            return;
        }
        for (const auto &[key, value] : checks.members()) {
            if (!(checks_.get(key) == value)) {
                fail(ops, "a repeated job produced a different " + key);
                return;
            }
        }
    }

    /**
     * Run @p job (which returns its measured wall seconds) as the
     * workload's closed loop. Untraced: repeat until --seconds have
     * elapsed and at least @p min_jobs jobs ran. Traced: one traced
     * job, then the trace is written and one untraced job measures
     * the overhead.
     */
    void
    loop(const std::function<double()> &job, size_t min_jobs = 1)
    {
        if (!args_.trace) {
            WallTimer elapsed;
            do {
                jobSamples_.push_back(job());
            } while (elapsed.seconds() < args_.seconds ||
                     jobSamples_.size() < min_jobs);
            return;
        }
        double traced = job();
        jobSamples_.push_back(traced);
        traceCoverage_ = spannedSeconds_ / runClock_.seconds();
        for (int l = 0; l < NumPipelineLayers; ++l)
            traced_[l] = layers_[l];
        telemetry::shutdownTelemetry();
        double untraced = job();
        jobSamples_.push_back(untraced);
        traceOverhead_ = traced / untraced - 1.0;
    }

    /** Wall seconds of the first (in trace mode: the traced) job. */
    double firstJobWall() const { return jobSamples_.front(); }

    /** @return the wall seconds of @p layer in the traced job. */
    double tracedWall(Layer layer) const { return traced_[layer].wall; }

    /** Record one set-up sample of @p seconds. */
    void addSetupSample(double seconds) { setupSamples_.push_back(seconds); }

    /** Record one set-up sample: the mean seconds of kSetupBatch
     *  back-to-back calls of @p construct. */
    void
    constructSample(const std::function<void()> &construct)
    {
        addSetupSample(call(Setup, 1,
                            [&] {
                                for (int i = 0; i < kSetupBatch; ++i)
                                    construct();
                            }) /
                       kSetupBatch);
    }

    /** The run's result object (see run.py). */
    json::Value report(json::Value perLayer) const;

    const rtl::PpConfig config;

  private:
    void
    notePeak()
    {
        processPeak_ = std::max(processPeak_, peakRssBytes());
    }

    const Args args_;
    const bool peakResetWorks_;
    const std::string loadAtStart_;
    WallTimer runClock_;
    std::vector<double> setupSamples_;
    std::vector<double> jobSamples_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
    json::Value checks_;
    size_t processPeak_ = 0;
    double spannedSeconds_ = 0;
    double traceCoverage_ = 0;
    double traceOverhead_ = 0;
    LayerUsage layers_[NumLayers];
    LayerUsage traced_[NumPipelineLayers];
};

json::Value
Run::report(json::Value perLayer) const
{
    json::Value host = json::Value::object();
    host.set("cpus", uint64_t(std::thread::hardware_concurrency()));
    host.set("mem_total_bytes", memTotalBytes());
    host.set("loadavg_at_start", loadAtStart_);

    json::Value e2e = json::Value::object();
    e2e.set("wall_s", median(jobSamples_));
    e2e.set("job_p10_s", quantile(jobSamples_, 0.1));
    e2e.set("job_p90_s", quantile(jobSamples_, 0.9));
    e2e.set("setup_s", median(setupSamples_));
    e2e.set("peak_rss_mb",
            double(std::max(processPeak_, peakRssBytes())) / kMB);
    e2e.set("jobs", uint64_t(jobSamples_.size()));
    e2e.set("setup_samples", uint64_t(setupSamples_.size()));
    e2e.set("check_s", layers_[Check].wall);
    json::Value jobs = json::Value::array();
    for (double w : jobSamples_)
        jobs.push(w);
    e2e.set("job_walls_s", jobs);
    for (int l = 0; l < NumPipelineLayers; ++l)
        e2e.set(std::string(kLayerNames[l]) + ".wall_s_total",
                layers_[l].wall);

    json::Value errors = json::Value::array();
    for (const auto &e : errors_)
        errors.push(e);

    json::Value out = json::Value::object();
    out.set("workload", args_.workload);
    out.set("preset", args_.small ? "small" : "full");
    out.set("seed", args_.seed);
    out.set("build_type", VALBENCH_BUILD_TYPE);
    out.set("host", host);
    out.set("rss_delta_basis",
            peakResetWorks_ ? "vmhwm_reset" : "rss_growth");
    out.set("attempted", attempted_);
    out.set("failed", std::min(failed_, attempted_));
    out.set("errors", errors);
    out.set("checks", checks_);
    out.set("end_to_end", e2e);
    if (args_.trace) {
        for (int l = 0; l < NumPipelineLayers; ++l) {
            const LayerUsage &u = traced_[l];
            std::string p = std::string(kLayerNames[l]) + ".";
            perLayer.set(p + "wall_s", u.wall);
            perLayer.set(p + "cpu_s", u.cpu);
            perLayer.set(p + "util",
                         u.wall > 0 ? u.cpu / (u.wall * u.threads) : 0.0);
            perLayer.set(p + "rss_delta_mb", u.rssDeltaMb);
        }
        perLayer.set("trace.overhead_frac", traceOverhead_);
        perLayer.set("trace.coverage", traceCoverage_);
        out.set("per_layer", perLayer);
    }
    return out;
}

/** Graph invariants (seed-independent). */
void
graphChecks(const graph::StateGraph &graph, json::Value &checks)
{
    checks.set("graph.states", uint64_t(graph.numStates()));
    checks.set("graph.edges", uint64_t(graph.numEdges()));
    checks.set("graph.fingerprint", hex(graph::fingerprint(graph)));
}

/** Hash every trace's serialized form in parallel, combining the
 *  per-trace hashes in trace order. */
uint64_t
vectorsHash(const std::vector<vecgen::TestTrace> &vectors)
{
    std::vector<uint64_t> per(vectors.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
        workers.emplace_back([&] {
            for (size_t i; (i = next.fetch_add(1)) < vectors.size();) {
                Fnv f;
                f.str(vecgen::serializeTrace(vectors[i]));
                per[i] = f.h;
            }
        });
    }
    for (auto &t : workers)
        t.join();
    Fnv all;
    for (uint64_t h : per)
        all.u64(h);
    return all.h;
}

/**
 * Graph, tour-coverage and stimulus checks of a flow's products.
 * @return empty on success, else why the tours or vectors are wrong.
 */
std::string
productChecks(core::PpValidationFlow &flow, bool hash_vectors,
              json::Value &checks)
{
    const auto &graph = flow.enumerate();
    const auto &tours = flow.makeTours();
    const auto &vectors = flow.makeVectors();
    graphChecks(graph, checks);
    checks.set("tour.traces", uint64_t(tours.size()));
    if (hash_vectors)
        checks.set("vectors.hash", hex(vectorsHash(vectors)));

    std::string why = graph::checkTourCoverage(graph, tours);
    if (why.empty() && vectors.size() != tours.size())
        why = "vector count differs from tour count";
    return why;
}

/** Simulated statistics of the modelled design (exact per seed). */
struct RtlStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t bugsExposed = 0;

    void
    check(json::Value &checks) const
    {
        checks.set("rtl.cycles", cycles);
        checks.set("rtl.instructions", instructions);
        checks.set("rtl.bugs_exposed", bugsExposed);
    }

    void
    metrics(json::Value &m) const
    {
        m.set("rtl.cycles", cycles);
        m.set("rtl.instructions", instructions);
        m.set("rtl.ipc", rate(double(instructions), double(cycles)));
        m.set("rtl.bugs_exposed", bugsExposed);
    }
};

void
murphiMetrics(const murphi::EnumStats &s, double wall, json::Value &m)
{
    m.set("murphi.states", s.numStates);
    m.set("murphi.edges", s.numEdges);
    m.set("murphi.transitions_tried", s.transitionsTried);
    m.set("murphi.states_per_s", rate(double(s.numStates), wall));
    m.set("murphi.page_outs", s.pageOuts);
    m.set("murphi.page_ins", s.pageIns);
    m.set("murphi.spill_bytes", s.spillBytesWritten);
    m.set("murphi.spill_fallbacks", s.spillFallbacks);
    m.set("murphi.residency_high_water_bytes",
          uint64_t(s.residencyHighWaterBytes));
}

void
graphMetrics(const graph::TourStats &s, double wall, json::Value &m)
{
    m.set("graph.traces", s.numTraces);
    m.set("graph.traversals", s.totalEdgeTraversals);
    m.set("graph.traversals_per_s",
          rate(double(s.totalEdgeTraversals), wall));
}

void
vecgenMetrics(const vecgen::VecGenStats &s, double wall, json::Value &m)
{
    m.set("vecgen.cycles", s.cycles);
    m.set("vecgen.cycles_per_s", rate(double(s.cycles), wall));
    m.set("vecgen.instructions", s.instructions);
    m.set("vecgen.constrained_loads", s.constrainedLoads);
    m.set("vecgen.squashed_packets", s.squashedPackets);
}

void
harnessMetrics(const harness::ReplayStats &s, double wall, json::Value &m)
{
    m.set("harness.jobs", s.jobs);
    m.set("harness.batch_cycles", s.batchCycles);
    m.set("harness.simulated_cycles", s.simulatedCycles);
    m.set("harness.sim_cycles_per_s",
          rate(double(s.simulatedCycles), wall));
    m.set("harness.avoided_frac", s.avoidedFraction());
    m.set("harness.bug_set_copies", s.bugSetCopies);
    m.set("harness.checkpoint_hits", s.checkpointHits);
    m.set("harness.checkpoint_hit_rate", s.hitRate());
    m.set("harness.verify_fallbacks", s.verifyFallbacks);
    m.set("harness.triggered_jobs", s.triggeredJobs);
    m.set("harness.stride_hits", s.strideHits);
    m.set("harness.stride_savings", s.strideSavings());
    m.set("harness.peak_cache_bytes", uint64_t(s.peakCacheBytes));
}

core::FlowOptions
flowOptions(const Args &args)
{
    core::FlowOptions options;
    options.tour.maxInstructionsPerTrace = kTourLimit;
    options.vectorSeed = args.seed;
    return options;
}

/**
 * pp_flow_full: `pp_validation full limit 10000` through the flow's
 * four phases; the verdict must be CLEAN. Set-up is model
 * construction; one job is one fresh flow run end to end.
 */
json::Value
runFlow(Run &run)
{
    const core::FlowOptions options = flowOptions(run.args());
    std::unique_ptr<core::PpValidationFlow> flow;
    auto construct = [&] {
        flow.reset();
        run.constructSample([&] {
            flow = std::make_unique<core::PpValidationFlow>(run.config,
                                                            options);
        });
    };
    for (int i = 1; i < kSetupSamples; ++i)
        construct();

    core::FlowReport report;
    RtlStats rtlStats;
    // The stimulus hash is the costliest check; later jobs' identical
    // stimulus is covered by their identical results.
    bool hashVectors = run.args().hashVectors;
    run.loop([&] {
        construct();
        double wall = run.call(Murphi, 1, [&] { flow->enumerate(); });
        wall += run.call(Graph, 1, [&] { flow->makeTours(); });
        wall += run.call(Vecgen, 1, [&] { flow->makeVectors(); });
        wall += run.call(Harness, 1, [&] { report = flow->simulate(); });

        run.call(Check, kThreads, [&] {
            const uint64_t ops = flow->makeVectors().size();
            json::Value checks = json::Value::object();
            std::string why = productChecks(*flow, hashVectors, checks);
            hashVectors = false;
            if (!why.empty())
                run.fail(ops, "tours: " + why);
            else if (report.tracesPlayed != ops)
                run.fail(ops, "simulate did not play every trace");
            else if (report.divergingTraces > 0)
                run.fail(report.divergingTraces,
                         "bug-free flow diverged: " +
                             report.divergences.front());
            Fnv f;
            f.u64(report.tracesPlayed);
            f.u64(report.divergingTraces);
            f.u64(report.lockstepErrors);
            f.u64(report.cyclesSimulated);
            f.u64(report.instructionsSimulated);
            for (const auto &d : report.divergences)
                f.str(d);
            checks.set("results.hash", hex(f.h));
            rtlStats = {report.cyclesSimulated,
                        report.instructionsSimulated, 0};
            rtlStats.check(checks);
            run.settle(std::move(checks), ops);
        });
        return wall;
    });

    // The sequential player steps every cycle of every trace once.
    const vecgen::VecGenStats &vs = flow->vecStats();
    harness::ReplayStats replay;
    replay.jobs = report.tracesPlayed;
    replay.batchCycles = vs.cycles;
    replay.simulatedCycles = report.cyclesSimulated;

    json::Value m = json::Value::object();
    m.set("verified_cycles_per_s",
          rate(double(vs.cycles), run.firstJobWall()));
    murphiMetrics(flow->enumStats(), run.tracedWall(Murphi), m);
    graphMetrics(flow->tourStats(), run.tracedWall(Graph), m);
    vecgenMetrics(vs, run.tracedWall(Vecgen), m);
    harnessMetrics(replay, run.tracedWall(Harness), m);
    rtlStats.metrics(m);
    return m;
}

/** Outputs of one slice of the bug matrix. */
struct SliceResult
{
    /** Summarise @p results of @p traces traces x @p sets bug sets. */
    SliceResult(const std::vector<harness::PlayResult> &results,
                size_t traces, size_t sets)
        : diverged(sets)
    {
        Fnv f;
        for (size_t b = 0; b < sets; ++b) {
            for (size_t t = 0; t < traces; ++t) {
                const auto &r = results[b * traces + t];
                f.u64(r.diverged);
                f.str(r.diff);
                f.u64(r.cycles);
                f.u64(r.instructions);
                f.u64(r.lockstepErrors);
                f.u64(r.drained);
                f.u64(r.skipped);
                cycles += r.cycles;
                instructions += r.instructions;
                diverged[b] += r.diverged;
                skipped += r.skipped;
            }
        }
        hash = f.h;
    }

    bool operator==(const SliceResult &) const = default;

    uint64_t hash = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t skipped = 0;
    std::vector<uint64_t> diverged; ///< per bug set
};

/**
 * pp_bug_matrix: set-up builds the flow's graph, tours and vectors.
 * One job is a single-threaded ReplayEngine::playAll over one slice
 * of the traces x {bug-free, each Table 2.1 bug alone}, the slices
 * taken in turn. After the timed jobs the rest of the matrix is played
 * untimed: the bug-free set must be clean, every bug must be exposed
 * by at least one trace, and the hash combines every slice's.
 */
json::Value
runBugMatrix(Run &run)
{
    std::unique_ptr<core::PpValidationFlow> flow;
    double setup = run.call(Setup, 1, [&] {
        flow = std::make_unique<core::PpValidationFlow>(
            run.config, flowOptions(run.args()));
    });
    setup += run.call(Murphi, 1, [&] { flow->enumerate(); });
    setup += run.call(Graph, 1, [&] { flow->makeTours(); });
    setup += run.call(Vecgen, 1, [&] { flow->makeVectors(); });
    run.addSetupSample(setup);

    const auto &vectors = flow->makeVectors();
    std::vector<rtl::BugSet> bugSets(1);
    for (size_t b = 0; b < rtl::numBugs; ++b)
        bugSets.emplace_back().set(b);
    const size_t traces = vectors.size();
    const size_t slices = std::min(kSlices, traces);

    // One job plays one slice against every bug set; a slice played
    // again must reproduce its first results exactly.
    std::vector<std::optional<SliceResult>> played(slices);
    std::optional<harness::ReplayStats> first;
    auto play = [&](size_t s, unsigned threads) {
        std::vector<vecgen::TestTrace> slice;
        run.call(Setup, 1, [&] {
            for (size_t t = s; t < traces; t += slices)
                slice.push_back(vectors[t]);
        });
        harness::ReplayOptions options;
        options.numThreads = threads;
        harness::ReplayEngine engine(run.config, options);
        std::vector<harness::PlayResult> results;
        double wall = run.call(Harness, threads, [&] {
            results = engine.playAll(slice, bugSets);
        });
        if (!first)
            first = engine.stats();

        run.call(Check, 1, [&] {
            const uint64_t ops = slice.size() * bugSets.size();
            run.attempt(ops);
            if (results.size() != ops) {
                run.fail(ops, "playAll returned the wrong result count");
                return;
            }
            SliceResult r(results, slice.size(), bugSets.size());
            if (!played[s])
                played[s] = std::move(r);
            else if (!(*played[s] == r))
                run.fail(ops,
                         formatString("slice %zu changed on replay", s));
        });
        return wall;
    };
    // Untimed runs time every slice at least once, so every run's
    // figures are over the same mix of jobs.
    size_t next = 0;
    run.loop([&] { return play(next++ % slices, kJobThreads); }, slices);
    // The verdicts need the whole matrix: a traced run plays what its
    // two jobs did not reach, untimed and on every CPU.
    for (size_t s = 0; s < slices; ++s)
        if (!played[s])
            play(s, kThreads);

    // The product checks come last: the stimulus hash churns gigabytes
    // of heap, and timed jobs after it ran slower.
    RtlStats rtlStats;
    run.call(Check, kThreads, [&] {
        json::Value checks = json::Value::object();
        std::string why =
            productChecks(*flow, run.args().hashVectors, checks);
        if (!why.empty())
            run.fail(traces * bugSets.size(), "tours: " + why);
        Fnv f;
        std::vector<uint64_t> diverged(bugSets.size());
        for (const auto &r : played) {
            if (!r)
                continue; // its job failed and was counted
            f.u64(r->hash);
            rtlStats.cycles += r->cycles;
            rtlStats.instructions += r->instructions;
            for (size_t b = 0; b < bugSets.size(); ++b)
                diverged[b] += r->diverged[b];
            if (r->skipped > 0)
                run.fail(r->skipped, "jobs skipped");
        }
        if (diverged[0] > 0)
            run.fail(diverged[0], "bug-free set diverged");
        for (size_t b = 1; b < bugSets.size(); ++b) {
            if (diverged[b] == 0)
                run.fail(traces,
                         formatString("%s not exposed",
                                      rtl::bugName(rtl::BugId(b - 1))));
            rtlStats.bugsExposed += diverged[b] > 0;
        }
        checks.set("results.hash", hex(f.h));
        rtlStats.check(checks);
        run.settle(std::move(checks), 0);
    });

    json::Value m = json::Value::object();
    m.set("verified_cycles_per_s",
          rate(double(first->batchCycles), run.firstJobWall()));
    murphiMetrics(flow->enumStats(), run.tracedWall(Murphi), m);
    graphMetrics(flow->tourStats(), run.tracedWall(Graph), m);
    vecgenMetrics(flow->vecStats(), run.tracedWall(Vecgen), m);
    harnessMetrics(*first, run.tracedWall(Harness), m);
    rtlStats.metrics(m);
    return m;
}

/**
 * pp_enum_spill's model: the full preset without WB-stage tracking and
 * fetch alignment (14,304 states, a job takes about 0.3 s), or the
 * small preset. On the full preset (325,424 states) a job takes 6-9 s
 * and its memory-bound search slows with every neighbour on a shared
 * host; a run then holds too few jobs for a steady figure.
 */
rtl::PpConfig
spillConfig(bool small)
{
    if (small)
        return rtl::PpConfig::smallPreset();
    rtl::PpConfig config = rtl::PpConfig::fullPreset();
    config.modelWbStage = false;
    config.modelAlignment = false;
    return config;
}

/**
 * pp_enum_spill: a single-threaded out-of-core enumeration under a
 * 256 KiB resident-table budget, spilling into a scratch directory
 * this run creates and removes. The graph must equal the in-memory
 * search's, and run.py compares it with the committed values.
 */
json::Value
runEnumSpill(Run &run)
{
    namespace fs = std::filesystem;
    struct ScratchDir
    {
        fs::path path;
        explicit ScratchDir(fs::path p) : path(std::move(p))
        {
            fs::create_directories(path);
        }
        ~ScratchDir()
        {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
        ScratchDir(const ScratchDir &) = delete;
        ScratchDir &operator=(const ScratchDir &) = delete;
    } scratch(fs::absolute(fs::path(run.args().scratch) /
                           formatString("spill-%d", int(getpid()))));

    const rtl::PpConfig config = spillConfig(run.args().small);
    std::unique_ptr<rtl::PpFsmModel> model;
    for (int i = 0; i < kSetupSamples; ++i) {
        run.constructSample([&] {
            model = std::make_unique<rtl::PpFsmModel>(config);
        });
    }

    murphi::EnumOptions options;
    options.numThreads = kJobThreads;
    // Every level pages a partition out and in (54 page-outs a full
    // job), and each page-out waits for an fsync. With the default
    // partition count a job makes twenty times as many, and a shared
    // disk's latency, which drifts by the minute, sets its time.
    options.memoryBudgetBytes =
        run.args().small ? (32u << 10) : (256u << 10);
    options.oocPartitions = 2;
    options.spillDir = scratch.path.string();

    // The in-memory search of the same model gives the reference graph.
    json::Value reference = json::Value::object();
    run.call(Check, 1, [&] {
        auto graph = murphi::Enumerator(*model).run();
        if (graph.ok())
            graphChecks(graph.value(), reference);
    });

    std::optional<murphi::EnumStats> first;
    run.loop([&] {
        murphi::Enumerator enumerator(*model, options);
        std::optional<Result<graph::StateGraph>> result;
        double wall = run.call(Murphi, kJobThreads,
                               [&] { result.emplace(enumerator.run()); });
        if (!first)
            first = enumerator.stats();
        run.call(Check, 1, [&] {
            json::Value checks = json::Value::object();
            if (!result->ok()) {
                run.fail(1, "enumeration failed: " +
                                result->errorMessage());
            } else {
                graphChecks(result->value(), checks);
                if (!(checks == reference))
                    run.fail(1, "the graph differs from the in-memory one");
                else if (enumerator.stats().pageOuts == 0)
                    run.fail(1, "the budget never paged a partition out");
            }
            run.settle(std::move(checks), 1);
        });
        return wall;
    }, kSpillMinJobs);

    // Only the murphi layer works here; the others report idle zeros.
    json::Value m = json::Value::object();
    m.set("verified_cycles_per_s", 0.0);
    murphiMetrics(*first, run.tracedWall(Murphi), m);
    graphMetrics({}, 0, m);
    vecgenMetrics({}, 0, m);
    harnessMetrics({}, 0, m);
    RtlStats{}.metrics(m);
    return m;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "valbench: %s\nusage: valbench --workload W --seed N "
                 "--seconds S [--trace 0|1] [--preset full|small] "
                 "[--hash-vectors 0|1] [--scratch DIR]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (key == "--trace" && (value == "0" || value == "1"))
            args.trace = value == "1";
        else if (key == "--preset" && (value == "full" || value == "small"))
            args.small = value == "small";
        else if (key == "--hash-vectors" && (value == "0" || value == "1"))
            args.hashVectors = value == "1";
        else if (key == "--scratch")
            args.scratch = value;
        else
            usage("bad argument " + key + " " + value);
    }
    if (args.workload != "pp_flow_full" &&
        args.workload != "pp_bug_matrix" &&
        args.workload != "pp_enum_spill")
        usage("unknown workload '" + args.workload + "'");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "valbench: refusing to run a non-optimised "
                         "build (%s)\n",
                 VALBENCH_BUILD_TYPE);
    return 2;
#endif
    const Args args = parseArgs(argc, argv);
    telemetry::initTelemetryFromEnv();
    if (args.trace && !telemetry::tracingEnabled())
        usage("--trace 1 needs ARCHVAL_TRACE=<file>");

    Run run(args);
    json::Value perLayer;
    try {
        if (args.workload == "pp_flow_full")
            perLayer = runFlow(run);
        else if (args.workload == "pp_bug_matrix")
            perLayer = runBugMatrix(run);
        else
            perLayer = runEnumSpill(run);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "valbench: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", run.report(std::move(perLayer)).serialize().c_str());
    return 0;
}
