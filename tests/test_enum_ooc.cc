/**
 * @file
 * Differential battery for enumeration under a memory budget: for
 * every corpus design and the PP FSM model, a run that pages its
 * table partitions to disk must produce a graph byte-identical to
 * the unbudgeted run across every residency budget — including the
 * pathological single-partition table — and must page exactly when
 * the budget binds. Every injected spill fault (flipped CRC byte,
 * truncated shard file, unusable spill directory) must rebuild the
 * identical graph, counted in enum.spill_fallbacks. Registered under
 * the ctest label `ooc`; ARCHVAL_ENUM_SOAK widens the PP
 * configuration to paper scale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"
#include "murphi/ooc.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/record_file.hh"

namespace archval
{
namespace
{

/** Serialize every observable byte of a graph: per state the packed
 *  vector and its out-edge ids, then every edge's four fields. */
std::string
fingerprintBytes(const graph::StateGraph &graph)
{
    std::string bytes;
    auto put64 = [&bytes](uint64_t value) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(char(value >> (8 * i)));
    };
    put64(graph.numStates());
    put64(graph.numEdges());
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        const BitVec &packed = graph.packedState(s);
        put64(packed.numBits());
        bytes += packed.toString();
        for (graph::EdgeId e : graph.outEdges(s))
            put64(e);
    }
    for (graph::EdgeId e = 0; e < graph.numEdges(); ++e) {
        const graph::Edge &edge = graph.edge(e);
        put64(edge.src);
        put64(edge.dst);
        put64(edge.choiceCode);
        put64(edge.instrCount);
    }
    return bytes;
}

/** The residency budgets every differential sweeps: effectively
 *  unbounded (paging machinery active, nothing evicted), tight
 *  (constant eviction churn), and the pathological single-partition
 *  table (oocPartitions = 1, everything in one shard). */
struct BudgetCase
{
    const char *name;
    size_t budgetBytes;
    size_t partitions; ///< 0 = default
};

constexpr size_t kUnboundedBytes = size_t(1) << 30;

const BudgetCase kBudgets[] = {
    {"unbounded", kUnboundedBytes, 0},
    {"tight", size_t(32) << 10, 0},
    {"pathological-1-shard", 4096, 1},
};

murphi::EnumOptions
baseOptions()
{
    murphi::EnumOptions options;
    options.recording = murphi::EdgeRecording::FirstCondition;
    return options;
}

std::string
inMemoryBaseline(const fsm::Model &model, murphi::EnumOptions options)
{
    options.memoryBudgetBytes = 0;
    murphi::Enumerator single(model, options);
    auto graph = single.runOrThrow();
    EXPECT_GT(graph.numStates(), 0u);
    return fingerprintBytes(graph);
}

/**
 * Budgeted graphs must be byte-identical to the in-memory graph for
 * every budget, and a budget pages exactly when it binds. An
 * unbounded run at the same partition count reads the table's
 * resident high water: a budget below it makes at least one
 * page-out, one at or above it makes none. The rule is exact because
 * eviction happens only at a level's end, where that reading is
 * taken, or after a page-in, which only follows a page-out.
 */
void
expectOocIdentical(const fsm::Model &model)
{
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);

    for (const BudgetCase &budget : kBudgets) {
        options.oocPartitions = budget.partitions;
        options.memoryBudgetBytes = kUnboundedBytes;
        murphi::Enumerator unbounded(model, options);
        unbounded.runOrThrow();
        const size_t high_water =
            unbounded.stats().residencyHighWaterBytes;

        options.memoryBudgetBytes = budget.budgetBytes;
        murphi::Enumerator ooc(model, options);
        auto graph = ooc.runOrThrow();
        const murphi::EnumStats &stats = ooc.stats();
        EXPECT_EQ(fingerprintBytes(graph), expected)
            << model.name() << " diverges at the " << budget.name
            << " budget";
        EXPECT_EQ(stats.spillFallbacks, 0u);
        // The acceptance gate: whenever nothing degraded, the
        // steady-state resident table footprint stayed under the
        // budget.
        EXPECT_LE(stats.residencyHighWaterBytes, budget.budgetBytes)
            << model.name() << " over budget (" << budget.name << ")";
        if (budget.budgetBytes < high_water) {
            EXPECT_GE(stats.pageOuts, 1u)
                << model.name() << ": the " << budget.name
                << " budget is below the " << high_water
                << " B high water but paged nothing out";
        } else {
            EXPECT_EQ(stats.pageOuts, 0u)
                << model.name() << ": the " << budget.name
                << " budget covers the " << high_water
                << " B high water but paged out";
        }
        // Shard files are the only spill files.
        EXPECT_LE(stats.pageIns, stats.pageOuts);
        EXPECT_EQ(stats.spillBytesWritten > 0, stats.pageOuts > 0)
            << model.name() << " (" << budget.name << ")";
    }
}

TEST(EnumOoc, CorpusDesignsIdenticalAcrossBudgetsAndKernels)
{
    for (const hdl::CorpusDesign &design : hdl::designCorpus()) {
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << design.name << ": "
                                 << result.errorMessage();
        expectOocIdentical(*result.value().model);
    }
}

TEST(EnumOoc, PpFsmModelIdenticalAcrossBudgetsAndKernels)
{
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    if (std::getenv("ARCHVAL_ENUM_SOAK"))
        config = rtl::PpConfig::fullPreset();
    rtl::PpFsmModel model(config);
    expectOocIdentical(model);
}

TEST(EnumOoc, AllConditionsRecordingIdenticalToo)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    options.recording = murphi::EdgeRecording::AllConditions;
    const std::string expected = inMemoryBaseline(model, options);
    options.memoryBudgetBytes = kBudgets[1].budgetBytes;
    murphi::Enumerator ooc(model, options);
    EXPECT_EQ(fingerprintBytes(ooc.runOrThrow()), expected);
}

TEST(EnumOoc, MaxStatesCapStillEnforced)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    options.maxStates = 10;
    options.memoryBudgetBytes = kBudgets[1].budgetBytes;
    murphi::Enumerator ooc(model, options);
    auto result = ooc.run();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("state explosion"),
              std::string::npos);
}

// --- Fault injection ------------------------------------------------

/** First shard page-out gets one payload byte flipped: the CRC must
 *  catch it at page-in and the partition be rebuilt from the
 *  graph — identical graph, counted fallback. */
TEST(EnumOoc, CorruptShardFileRebuildsFromGraph)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);

    bool corrupted = false;
    murphi::ooc::TestHooks hooks;
    hooks.afterShardPageOut = [&](const std::string &path, size_t) {
        if (corrupted)
            return;
        // Offset 20 lands inside the header record's payload; any
        // flipped payload byte must surface as a CRC mismatch.
        ASSERT_TRUE(corruptFileByteForTesting(path, 20));
        corrupted = true;
    };
    options.memoryBudgetBytes = kBudgets[1].budgetBytes;
    options.testHooks = &hooks;
    murphi::Enumerator ooc(model, options);
    auto graph = ooc.runOrThrow();
    EXPECT_TRUE(corrupted) << "tight budget never paged a shard out";
    EXPECT_EQ(fingerprintBytes(graph), expected);
    EXPECT_GE(ooc.stats().spillFallbacks, 1u);
}

/** Same fault with the pathological single shard: every candidate
 *  resolution goes through the damaged file. */
TEST(EnumOoc, CorruptShardSinglePartitionRebuilds)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);
    bool corrupted = false;
    murphi::ooc::TestHooks hooks;
    hooks.afterShardPageOut = [&](const std::string &path, size_t) {
        if (!corrupted) {
            ASSERT_TRUE(corruptFileByteForTesting(path, 20));
            corrupted = true;
        }
    };
    options.memoryBudgetBytes = 4096;
    options.oocPartitions = 1;
    options.testHooks = &hooks;
    murphi::Enumerator ooc(model, options);
    EXPECT_EQ(fingerprintBytes(ooc.runOrThrow()), expected);
    EXPECT_TRUE(corrupted);
    EXPECT_GE(ooc.stats().spillFallbacks, 1u);
}

/** A truncated shard file must be detected (record framing) at
 *  page-in and the partition rebuilt from the graph. */
TEST(EnumOoc, TruncatedShardRebuildsFromGraph)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);
    bool truncated = false;
    murphi::ooc::TestHooks hooks;
    hooks.afterShardPageOut = [&](const std::string &path, size_t) {
        if (truncated)
            return;
        struct stat st
        {
        };
        ASSERT_EQ(::stat(path.c_str(), &st), 0);
        ASSERT_TRUE(truncateFileForTesting(
            path, static_cast<uint64_t>(st.st_size) - 5));
        truncated = true;
    };
    options.memoryBudgetBytes = kBudgets[1].budgetBytes;
    options.testHooks = &hooks;
    murphi::Enumerator ooc(model, options);
    auto graph = ooc.runOrThrow();
    EXPECT_TRUE(truncated) << "tight budget never paged a shard out";
    EXPECT_EQ(fingerprintBytes(graph), expected);
    EXPECT_GE(ooc.stats().spillFallbacks, 1u);
}

/** An unusable spill directory degrades to the fully-resident search
 *  (identical graph, one counted fallback) instead of failing. */
TEST(EnumOoc, UnusableSpillDirDegradesInMemory)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);
    options.memoryBudgetBytes = kBudgets[1].budgetBytes;
    options.spillDir = "/dev/null/not-a-directory";
    murphi::Enumerator ooc(model, options);
    auto graph = ooc.runOrThrow();
    EXPECT_EQ(fingerprintBytes(graph), expected);
    EXPECT_GE(ooc.stats().spillFallbacks, 1u);
    EXPECT_EQ(ooc.stats().pageOuts, 0u);
    EXPECT_EQ(ooc.stats().spillBytesWritten, 0u);
}

// --- Spill file unit coverage ---------------------------------------

TEST(EnumOoc, ShardFileRoundTripsAndRejectsDamage)
{
    murphi::ooc::SpillDir dir("");
    ASSERT_TRUE(dir.ok());
    murphi::ooc::StateTable table(33);
    for (uint64_t i = 0; i < 600; ++i) {
        const uint64_t key[] = {(i | (i << 20)) & ((uint64_t(1) << 33) - 1)};
        table.insert(key, hashPackedWords(33, key),
                     static_cast<graph::StateId>(i));
    }
    const std::string path = murphi::ooc::shardPath(dir.path(), 7);
    uint64_t bytes = 0;
    ASSERT_TRUE(
        murphi::ooc::writeShardFile(path, 7, 33, table, &bytes));
    EXPECT_GT(bytes, 0u);

    murphi::ooc::StateTable back(33);
    ASSERT_TRUE(murphi::ooc::readShardFile(
        path, 7, 33,
        [&](std::span<const uint64_t> key, graph::StateId id) {
            back.insert(key, hashPackedWords(33, key), id);
        }));
    ASSERT_EQ(back.size(), table.size());
    for (size_t e = 0; e < table.size(); ++e) {
        EXPECT_EQ(back.find(table.key(e),
                            hashPackedWords(33, table.key(e))),
                  table.id(e))
            << "entry " << e;
    }

    // Wrong partition or width: rejected before any entry is used.
    auto ignore = [](std::span<const uint64_t>, graph::StateId) {};
    EXPECT_FALSE(murphi::ooc::readShardFile(path, 8, 33, ignore));
    EXPECT_FALSE(murphi::ooc::readShardFile(path, 7, 32, ignore));

    // Truncation mid-records is Damaged, not a short table.
    struct stat st
    {
    };
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_TRUE(truncateFileForTesting(
        path, static_cast<uint64_t>(st.st_size) / 2));
    EXPECT_FALSE(murphi::ooc::readShardFile(path, 7, 33, ignore));
}

} // namespace
} // namespace archval
