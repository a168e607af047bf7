/**
 * @file
 * Differential battery for enumeration under a memory budget: for
 * every corpus design and the PP FSM model, a run that pages its
 * table partitions and frontier to disk must produce a graph
 * byte-identical to the unbudgeted run across every residency
 * budget — including the pathological single-partition table — and
 * every injected spill
 * fault (flipped CRC byte, truncated record file, unusable spill
 * directory) must either rebuild the identical graph or surface a
 * typed error, counted in enum.spill_fallbacks. Registered under the
 * ctest label `ooc`; ARCHVAL_ENUM_SOAK widens the PP configuration
 * to paper scale.
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
    put64(graph.statesRetained());
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        if (graph.statesRetained()) {
            const BitVec &packed = graph.packedState(s);
            put64(packed.numBits());
            bytes += packed.toString();
        }
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

const BudgetCase kBudgets[] = {
    {"unbounded", size_t(1) << 30, 0},
    {"tight", size_t(32) << 10, 0},
    {"pathological-1-shard", 4096, 1},
};

murphi::EnumOptions
baseOptions()
{
    murphi::EnumOptions options;
    options.recording = murphi::EdgeRecording::FirstCondition;
    options.retainStates = true;
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
 * every budget.
 */
void
expectOocIdentical(const fsm::Model &model)
{
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);

    for (const BudgetCase &budget : kBudgets) {
        options.memoryBudgetBytes = budget.budgetBytes;
        options.oocPartitions = budget.partitions;
        murphi::Enumerator ooc(model, options);
        auto graph = ooc.runOrThrow();
        EXPECT_EQ(fingerprintBytes(graph), expected)
            << model.name() << " diverges at the " << budget.name
            << " budget";
        EXPECT_EQ(ooc.stats().spillFallbacks, 0u);
        // The acceptance gate: whenever nothing degraded, the
        // steady-state resident table footprint stayed under the
        // budget.
        EXPECT_LE(ooc.stats().residencyHighWaterBytes,
                  budget.budgetBytes)
            << model.name() << " over budget (" << budget.name << ")";
        if (budget.budgetBytes < (size_t(1) << 30)) {
            EXPECT_GT(ooc.stats().spillBytesWritten, 0u)
                << budget.name << " budget never touched disk";
        }
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

TEST(EnumOoc, UnretainedGraphsIdenticalUnderBudget)
{
    // retainStates = false is the true out-of-core shape: no packed
    // state survives outside the partitioned table and the frontier.
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    options.retainStates = false;
    const std::string expected = inMemoryBaseline(model, options);
    for (const BudgetCase &budget : kBudgets) {
        options.memoryBudgetBytes = budget.budgetBytes;
        options.oocPartitions = budget.partitions;
        murphi::Enumerator ooc(model, options);
        auto graph = ooc.runOrThrow();
        EXPECT_EQ(fingerprintBytes(graph), expected) << budget.name;
        EXPECT_EQ(ooc.stats().spillFallbacks, 0u);
    }
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
 *  retained graph — identical graph, counted fallback. */
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

/** A truncated frontier file must be detected (record framing) and
 *  the frontier rebuilt from the retained graph. */
TEST(EnumOoc, TruncatedFrontierRebuildsFromGraph)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    const std::string expected = inMemoryBaseline(model, options);
    bool truncated = false;
    murphi::ooc::TestHooks hooks;
    hooks.afterFrontierWrite = [&](const std::string &path) {
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
    EXPECT_TRUE(truncated);
    EXPECT_EQ(fingerprintBytes(graph), expected);
    EXPECT_GE(ooc.stats().spillFallbacks, 1u);
}

/** Without retained states there is nothing to rebuild from: damage
 *  must surface as a typed error result, never a crash and never a
 *  silently different graph. */
TEST(EnumOoc, DamageWithoutRetentionIsTypedError)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::EnumOptions options = baseOptions();
    options.retainStates = false;
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
    auto result = ooc.run();
    ASSERT_TRUE(corrupted);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("damaged"),
              std::string::npos)
        << result.errorMessage();
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

TEST(EnumOoc, FrontierFileRoundTripsAndRejectsMismatch)
{
    murphi::ooc::SpillDir dir("");
    ASSERT_TRUE(dir.ok());
    std::vector<uint64_t> states; // 67-bit states, two words each
    for (uint64_t i = 0; i < 700; ++i) {
        states.push_back(i * 0x9e3779b97f4a7c15ull);
        states.push_back(i & 7);
    }
    const std::string path = murphi::ooc::frontierPath(dir.path(), 3);
    uint64_t bytes = 0;
    ASSERT_TRUE(murphi::ooc::writeFrontierFile(path, 3, 67, 700, states,
                                               &bytes));
    EXPECT_GT(bytes, 0u);

    std::vector<uint64_t> back;
    ASSERT_TRUE(
        murphi::ooc::readFrontierFile(path, 3, 67, 700, back));
    ASSERT_EQ(back.size(), states.size());
    for (size_t i = 0; i < states.size(); ++i)
        EXPECT_EQ(back[i], states[i]) << "word " << i;

    // Wrong level, wrong width, wrong count: all rejected.
    EXPECT_FALSE(
        murphi::ooc::readFrontierFile(path, 4, 67, 700, back));
    EXPECT_FALSE(
        murphi::ooc::readFrontierFile(path, 3, 66, 700, back));
    EXPECT_FALSE(
        murphi::ooc::readFrontierFile(path, 3, 67, 699, back));

    // A flipped payload byte is a CRC mismatch, not wrong states.
    ASSERT_TRUE(corruptFileByteForTesting(path, 64));
    EXPECT_FALSE(
        murphi::ooc::readFrontierFile(path, 3, 67, 700, back));
    EXPECT_TRUE(back.empty());
}

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
