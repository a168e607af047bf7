#include "session_store.hh"

#include <algorithm>
#include <cstring>
#include <optional>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include "service/session_cache.hh"
#include "support/flight_recorder.hh"
#include "support/record_file.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::service
{

namespace
{

/** Record-file identity: "AVS1" + format version. Bump the version
 *  whenever any record layout below changes — stores of another
 *  version then count as restore misses and rebuild cold. */
constexpr uint32_t kStoreMagic = 0x31535641;
constexpr uint32_t kStoreVersion = 4;

/** Structural sanity caps: a record that passed its CRC but claims
 *  sizes beyond these is from a different layout, not this one. */
constexpr uint64_t kMaxStateBits = 1u << 20;
constexpr uint64_t kMaxCount = 1ull << 32;

void
packU8(std::vector<uint8_t> &out, uint8_t value)
{
    out.push_back(value);
}

void
packU32(std::vector<uint8_t> &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packU64(std::vector<uint8_t> &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packF64(std::vector<uint8_t> &out, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    packU64(out, bits);
}

/** Bounds-checked little-endian reader over one record; any overrun
 *  flips ok, so callers validate once per record. */
struct Reader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    size_t remaining() const { return size - pos; }

    uint8_t
    u8()
    {
        if (!ok || remaining() < 1) {
            ok = false;
            return 0;
        }
        return data[pos++];
    }

    uint32_t
    u32()
    {
        if (!ok || remaining() < 4) {
            ok = false;
            return 0;
        }
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= uint32_t(data[pos + i]) << (8 * i);
        pos += 4;
        return value;
    }

    uint64_t
    u64()
    {
        if (!ok || remaining() < 8) {
            ok = false;
            return 0;
        }
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= uint64_t(data[pos + i]) << (8 * i);
        pos += 8;
        return value;
    }

    double
    f64()
    {
        uint64_t bits = u64();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }
};

/** FNV-1a of the fingerprint — only a filename; the full string
 *  inside the file is what is actually trusted. */
uint64_t
fingerprintHash(const std::string &fingerprint)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : fingerprint) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<uint8_t>
serializeMeta(bool has_tours, const murphi::EnumStats &enum_stats,
              const graph::TourStats &tour_stats)
{
    std::vector<uint8_t> out;
    packU8(out, has_tours ? 1 : 0);
    packU64(out, enum_stats.numStates);
    packU64(out, enum_stats.numEdges);
    packU64(out, enum_stats.bitsPerState);
    packF64(out, enum_stats.cpuSeconds);
    packU64(out, enum_stats.memoryBytes);
    packU64(out, enum_stats.transitionsTried);
    packU64(out, enum_stats.transitionsValid);
    packU64(out, enum_stats.numShards);
    packU64(out, enum_stats.minShardStates);
    packU64(out, enum_stats.maxShardStates);
    packU64(out, enum_stats.levels.size());
    for (const murphi::LevelStats &level : enum_stats.levels) {
        packU64(out, level.frontierWidth);
        packU64(out, level.newStates);
        packU64(out, level.newEdges);
        packF64(out, level.seconds);
    }
    packU64(out, tour_stats.numTraces);
    packU64(out, tour_stats.totalEdgeTraversals);
    packU64(out, tour_stats.totalInstructions);
    packU64(out, tour_stats.longestTraceEdges);
    packU64(out, tour_stats.longestTraceInstructions);
    packU64(out, tour_stats.tracesTerminatedByLimit);
    packF64(out, tour_stats.generationSeconds);
    return out;
}

bool
deserializeMeta(const std::vector<uint8_t> &rec, bool &has_tours,
                murphi::EnumStats &enum_stats,
                graph::TourStats &tour_stats)
{
    Reader in{rec.data(), rec.size()};
    has_tours = in.u8() != 0;
    enum_stats.numStates = in.u64();
    enum_stats.numEdges = in.u64();
    enum_stats.bitsPerState = in.u64();
    enum_stats.cpuSeconds = in.f64();
    enum_stats.memoryBytes = in.u64();
    enum_stats.transitionsTried = in.u64();
    enum_stats.transitionsValid = in.u64();
    enum_stats.numShards = in.u64();
    enum_stats.minShardStates = in.u64();
    enum_stats.maxShardStates = in.u64();
    const uint64_t levels = in.u64();
    if (!in.ok || levels > kMaxCount ||
        levels * 32 > in.remaining())
        return false;
    enum_stats.levels.resize(levels);
    for (murphi::LevelStats &level : enum_stats.levels) {
        level.frontierWidth = in.u64();
        level.newStates = in.u64();
        level.newEdges = in.u64();
        level.seconds = in.f64();
    }
    tour_stats.numTraces = in.u64();
    tour_stats.totalEdgeTraversals = in.u64();
    tour_stats.totalInstructions = in.u64();
    tour_stats.longestTraceEdges = in.u64();
    tour_stats.longestTraceInstructions = in.u64();
    tour_stats.tracesTerminatedByLimit = in.u64();
    tour_stats.generationSeconds = in.f64();
    return in.ok && in.pos == in.size;
}

/** The graph record: `[1 u8][stateBits u64][numStates u64]`, the
 *  packed states, then the edges. The leading byte is always 1 (a
 *  graph holds its states); a 0 there is a record of an older
 *  layout and does not decode. */
std::vector<uint8_t>
serializeGraph(const graph::StateGraph &g)
{
    std::vector<uint8_t> out;
    const uint64_t num_states = g.numStates();
    packU8(out, 1);
    packU64(out, g.stateBits());
    packU64(out, num_states);
    for (uint64_t s = 0; s < num_states; ++s) {
        for (uint64_t word : g.stateWords(static_cast<graph::StateId>(s)))
            packU64(out, word);
    }
    const uint64_t num_edges = g.numEdges();
    packU64(out, num_edges);
    for (uint64_t i = 0; i < num_edges; ++i) {
        const graph::Edge &edge =
            g.edge(static_cast<graph::EdgeId>(i));
        packU32(out, edge.src);
        packU32(out, edge.dst);
        packU64(out, edge.choiceCode);
        packU32(out, edge.instrCount);
    }
    return out;
}

bool
deserializeGraph(const std::vector<uint8_t> &rec,
                 graph::StateGraph &g)
{
    Reader in{rec.data(), rec.size()};
    const uint8_t with_states = in.u8();
    const uint64_t bits = in.u64();
    const uint64_t num_states = in.u64();
    if (!in.ok || with_states != 1 || bits > kMaxStateBits ||
        num_states > kMaxCount)
        return false;
    const size_t words = (bits + 63) / 64;
    if (num_states * (words * 8) > in.remaining())
        return false;
    std::vector<uint64_t> packed;
    packed.reserve(num_states * words);
    for (uint64_t i = 0; i < num_states * words; ++i)
        packed.push_back(in.u64());
    if (!in.ok)
        return false;
    // Bits above the width are clear in every saved state.
    if (bits % 64 != 0) {
        for (size_t i = words - 1; i < packed.size(); i += words) {
            if (packed[i] >> (bits % 64))
                return false;
        }
    }
    if (num_states > 0)
        g.addStates(bits, num_states, packed);
    const uint64_t num_edges = in.u64();
    if (!in.ok || num_edges > kMaxCount ||
        num_edges * 20 > in.remaining())
        return false;
    std::vector<graph::Edge> batch;
    batch.reserve(num_edges);
    for (uint64_t i = 0; i < num_edges; ++i) {
        graph::Edge edge;
        edge.src = in.u32();
        edge.dst = in.u32();
        const uint64_t code = in.u64();
        edge.instrCount = in.u32();
        // addEdges() treats out-of-range endpoints as an internal
        // invariant violation, and rejects a wide choice code or a
        // source out of order; from a disk record all are damage.
        if (edge.src >= num_states || edge.dst >= num_states ||
            code > UINT32_MAX ||
            (!batch.empty() && edge.src < batch.back().src))
            return false;
        edge.choiceCode = static_cast<uint32_t>(code);
        batch.push_back(edge);
    }
    if (!in.ok || in.pos != in.size)
        return false;
    g.addEdges(batch);
    g.shrinkToFit();
    return true;
}

std::vector<uint8_t>
serializeTours(const graph::Tours &tours)
{
    std::vector<uint8_t> out;
    packU64(out, tours.size());
    for (const graph::Trace &trace : tours) {
        packU64(out, trace.edges.size());
        for (graph::EdgeId edge : trace.edges)
            packU32(out, edge);
        packU64(out, trace.runEnds.size());
        for (uint32_t end : trace.runEnds)
            packU32(out, end);
        packU64(out, trace.instructions);
        packU8(out, trace.limitTerminated ? 1 : 0);
    }
    return out;
}

/** Decode the tours record against a graph of @p num_edges edges.
 *  Each trace is bounds-checked: edge ids in the graph, and run ends
 *  strictly increasing below the edge count, so no run is empty. */
bool
deserializeTours(const std::vector<uint8_t> &rec, uint64_t num_edges,
                 std::vector<graph::Trace> &tours)
{
    Reader in{rec.data(), rec.size()};
    const uint64_t count = in.u64();
    if (!in.ok || count > kMaxCount || count * 25 > in.remaining())
        return false;
    tours.reserve(count);
    for (uint64_t t = 0; t < count; ++t) {
        graph::Trace trace;
        const uint64_t edges = in.u64();
        if (!in.ok || edges == 0 || edges * 4 > in.remaining())
            return false;
        trace.edges.reserve(edges);
        for (uint64_t e = 0; e < edges; ++e) {
            const graph::EdgeId id = in.u32();
            if (id >= num_edges)
                return false; // dangling edge reference: damage
            trace.edges.push_back(id);
        }
        const uint64_t runs = in.u64();
        if (!in.ok || runs >= edges || runs * 4 > in.remaining())
            return false;
        trace.runEnds.reserve(runs);
        uint32_t prev = 0;
        for (uint64_t r = 0; r < runs; ++r) {
            const uint32_t end = in.u32();
            if (end <= prev || end >= edges)
                return false; // an empty or out-of-range run
            trace.runEnds.push_back(end);
            prev = end;
        }
        trace.instructions = in.u64();
        trace.limitTerminated = in.u8() != 0;
        tours.push_back(std::move(trace));
    }
    return in.ok && in.pos == in.size;
}

} // namespace

SessionStore::SessionStore(std::string dir, size_t cap_bytes)
    : dir_(std::move(dir)), capBytes_(cap_bytes)
{
    if (dir_.empty())
        return;
    ::mkdir(dir_.c_str(), 0777); // EEXIST is fine
    struct stat st;
    if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        dir_.clear(); // unusable directory: persistence off
}

void
SessionStore::enforceCap(const std::string &keep)
{
    if (capBytes_ == 0)
        return;
    std::lock_guard<std::mutex> lock(evictMutex_);
    struct File
    {
        std::string path;
        uint64_t bytes;
        time_t mtime;
    };
    std::vector<File> files;
    uint64_t total = 0;
    DIR *scan = ::opendir(dir_.c_str());
    if (!scan)
        return;
    while (struct dirent *entry = ::readdir(scan)) {
        const std::string name = entry->d_name;
        if (name.rfind("session-", 0) != 0 ||
            name.size() < 4 ||
            name.compare(name.size() - 4, 4, ".avs") != 0) {
            continue; // not one of ours: never delete foreign files
        }
        const std::string path = dir_ + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        files.push_back({path, static_cast<uint64_t>(st.st_size),
                         st.st_mtime});
        total += static_cast<uint64_t>(st.st_size);
    }
    ::closedir(scan);

    // Oldest mtime first; loads touch their file, so mtime order is
    // recency-of-use order.
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    for (const File &file : files) {
        if (total <= capBytes_)
            break;
        if (file.path == keep)
            continue;
        if (::unlink(file.path.c_str()) != 0)
            continue;
        total -= file.bytes;
        evictions_.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter("service.session_evictions").add(1);
        flight::recordEvent(flight::EventKind::SessionEvicted, 0, 0,
                            file.path);
    }
}

std::string
SessionStore::pathFor(const std::string &fingerprint) const
{
    return formatString("%s/session-%016llx.avs", dir_.c_str(),
                        static_cast<unsigned long long>(
                            fingerprintHash(fingerprint)));
}

uint64_t
SessionStore::stampLocked(const Session &session)
{
    uint64_t stamp = 0;
    if (session.graph_)
        stamp |= 1;
    if (session.tours_)
        stamp |= 2;
    if (session.warm_)
        stamp |= session.warm_->puts() << 2;
    return stamp;
}

bool
SessionStore::save(Session &session)
{
    if (!enabled())
        return true;
    std::lock_guard<std::mutex> lock(session.buildMutex_);
    if (!session.graph_)
        return true; // nothing worth a file yet
    const uint64_t stamp = stampLocked(session);
    if (stamp == session.savedStamp_)
        return true; // on-disk state is current
    RecordFileWriter writer(pathFor(session.fingerprint_),
                            kStoreMagic, kStoreVersion);
    bool ok = writer.ok();
    ok = ok && writer.append(reinterpret_cast<const uint8_t *>(
                                 session.fingerprint_.data()),
                             session.fingerprint_.size());
    ok = ok && writer.append(serializeMeta(session.tours_.has_value(),
                                           session.enumStats_,
                                           session.tourStats_));
    ok = ok && writer.append(serializeGraph(*session.graph_));
    if (session.tours_)
        ok = ok && writer.append(serializeTours(*session.tours_));
    // Each present warm row: its index, then its record.
    if (ok && session.warm_) {
        const auto rows = session.warm_->rows();
        for (size_t t = 0; ok && t < rows.size(); ++t) {
            if (!rows[t])
                continue;
            std::vector<uint8_t> rec;
            packU64(rec, t);
            const std::vector<uint8_t> row = rows[t]->serialize();
            rec.insert(rec.end(), row.begin(), row.end());
            ok = writer.append(rec);
        }
    }
    ok = ok && writer.commit();
    if (!ok) {
        saveFailures_.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter("service.session_save_failures").add(1);
        return false;
    }
    session.savedStamp_ = stamp;
    saves_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("service.session_saves").add(1);
    enforceCap(pathFor(session.fingerprint_));
    return true;
}

bool
SessionStore::loadLocked(Session &session)
{
    if (!enabled())
        return false;
    auto miss = [&] {
        restoreMisses_.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter("service.session_restore_misses").add(1);
        return false;
    };
    auto failure = [&] {
        restoreFailures_.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter("service.session_restore_failures").add(1);
        flight::recordEvent(flight::EventKind::SessionRestoreFailure,
                            0, 0, session.fingerprint_);
        return false;
    };
    const std::string path = pathFor(session.fingerprint_);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return miss(); // never saved: the expected cold-start case
    RecordFileReader reader(path, kStoreMagic, kStoreVersion);
    if (reader.otherVersion())
        return miss(); // another format version: rebuild, not damage
    if (!reader.ok())
        return failure(); // foreign magic / damage

    using RS = RecordFileReader::Status;
    std::vector<uint8_t> rec;

    if (reader.next(rec) != RS::Record)
        return failure();
    if (std::string(rec.begin(), rec.end()) != session.fingerprint_)
        return miss(); // filename-hash collision: not our store

    bool has_tours = false;
    murphi::EnumStats enum_stats;
    graph::TourStats tour_stats;
    if (reader.next(rec) != RS::Record ||
        !deserializeMeta(rec, has_tours, enum_stats, tour_stats))
        return failure();

    // The model is rebuilt from the config (it is itself a pure
    // function of the fingerprint). A graph of another state width
    // was written by a build with another control layout: vectors
    // read each state through the model's layout.
    auto model = std::make_unique<rtl::PpFsmModel>(session.config_);
    graph::StateGraph restored_graph;
    if (reader.next(rec) != RS::Record ||
        !deserializeGraph(rec, restored_graph) ||
        restored_graph.stateBits() != model->stateBits())
        return failure();

    // Tours are checked, not trusted: their legs follow routes
    // rebuilt from the restored graph, and every run must walk it.
    std::optional<graph::Tours> restored_tours;
    if (has_tours) {
        std::vector<graph::Trace> traces;
        if (reader.next(rec) != RS::Record ||
            !deserializeTours(rec, restored_graph.numEdges(), traces))
            return failure();
        restored_tours.emplace(graph::Routes(restored_graph),
                               std::move(traces));
        if (!graph::checkTourCoverage(restored_graph, *restored_tours)
                 .empty())
            return failure();
    }

    // Warm rows trail until clean end of file, one per restored tour
    // at most. Decode them all before committing anything, so a
    // damaged tail cannot leave a half-restored session; a row's pins
    // are checked here, where their bytes enter.
    std::shared_ptr<harness::WarmRows> warm;
    if (restored_tours)
        warm = std::make_shared<harness::WarmRows>(restored_tours->size());
    RS status;
    while ((status = reader.next(rec)) == RS::Record) {
        Reader in{rec.data(), rec.size()};
        const uint64_t row = in.u64();
        if (!in.ok || !warm || row >= warm->size())
            return failure();
        auto ref = harness::RowReference::deserialize(
            session.config_, rec.data() + in.pos, in.remaining());
        if (!ref)
            return failure();
        warm->put(row, std::move(ref));
    }
    if (status != RS::End)
        return failure();

    // Commit. Vectors regenerate on demand in the usual Vectors
    // stage.
    session.model_ = std::move(model);
    session.graph_ = std::move(restored_graph);
    session.enumStats_ = enum_stats;
    if (has_tours) {
        session.tours_ = std::move(*restored_tours);
        session.tourStats_ = tour_stats;
    }
    session.warm_ = std::move(warm);
    session.savedStamp_ = stampLocked(session);
    restoreHits_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("service.session_restore_hits").add(1);
    // Mark the file recently used so the byte cap's LRU eviction
    // prefers stale fingerprints over live ones.
    ::utimes(path.c_str(), nullptr);
    return true;
}

SessionStore::Stats
SessionStore::stats() const
{
    Stats s;
    s.saves = saves_.load(std::memory_order_relaxed);
    s.saveFailures = saveFailures_.load(std::memory_order_relaxed);
    s.restoreHits = restoreHits_.load(std::memory_order_relaxed);
    s.restoreMisses =
        restoreMisses_.load(std::memory_order_relaxed);
    s.restoreFailures =
        restoreFailures_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
}

} // namespace archval::service
