/**
 * @file
 * Explicit-state enumeration of a synchronous FSM model.
 *
 * Implements the paper's Section 3.2: breadth-first search from the
 * reset state, trying every permutation of abstract-block choices at
 * every state. Two edge-recording modes are provided:
 *
 *  - FirstCondition (the paper's default): "although more than one
 *    permutation of actions can cause the same transition from one
 *    state to another, only one is recorded" — one edge per distinct
 *    (src, dst) pair, labelled with the first condition found.
 *  - AllConditions (the fix proposed in Section 4): one edge per
 *    distinct (src, dst, condition), which catches the Figure 4.2
 *    "fewer behaviours" bug class at the cost of a larger graph.
 *
 * There is one search for every option set: a level-synchronous BFS
 * on the calling thread. Each level's sources are expanded in order
 * by the model's own fsm::Model::forEachTransition into transition
 * buffers; at the level barrier the destinations are resolved
 * against the partitioned interned-state table (open addressing over
 * packed words) and the new ones numbered in canonical BFS order;
 * they join the graph, which holds every state and is where the next
 * level's sources are read from. The produced StateGraph is
 * bit-identical for every memory budget; a budget only decides
 * whether table partitions are paged to disk (see DESIGN.md, "State
 * enumeration").
 */

#ifndef ARCHVAL_MURPHI_ENUMERATOR_HH
#define ARCHVAL_MURPHI_ENUMERATOR_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fsm/model.hh"
#include "graph/state_graph.hh"
#include "support/status.hh"

namespace archval::murphi
{

namespace ooc
{
struct TestHooks;
} // namespace ooc

/** Edge recording policy (see file comment). */
enum class EdgeRecording
{
    FirstCondition,
    AllConditions,
};

/** Enumeration options. */
struct EnumOptions
{
    EdgeRecording recording = EdgeRecording::FirstCondition;

    /** Stop with an error once interning another state would exceed
     *  this many (0 = unlimited). Guards against state explosion;
     *  the over-limit state is never interned. */
    uint64_t maxStates = 0;

    /** Nothing reads this: the search runs on the calling thread.
     *  It stays until valbench stops assigning it. */
    unsigned numThreads = 1;

    /** Cooperative cancellation: when non-null and it reads true,
     *  the search stops before its next source, the partial level
     *  is discarded and run() returns an error result — the same
     *  recoverable path as maxStates, never a process exit. The
     *  flag is only read. */
    const std::atomic<bool> *cancelFlag = nullptr;

    /**
     * Byte budget for the resident interned-state table (0 =
     * unbounded: nothing is paged and no spill directory is made).
     * Under a non-zero budget, cold table partitions are paged out
     * to CRC-guarded spill files under spillDir; the graph, with
     * every state, stays resident. The produced graph is
     * bit-identical for every budget. An unusable spill directory
     * degrades the run back to in-memory (counted in
     * enum.spill_fallbacks) rather than failing it.
     */
    size_t memoryBudgetBytes = 0;

    /** Base directory for spill scratch (empty = $TMPDIR or /tmp).
     *  A fresh subdirectory is created per run and removed after. */
    std::string spillDir;

    /** State table partition count (0 = default; rounded up to a
     *  power of two). 1 is legal — the pathological single
     *  partition — and mainly useful for tests. */
    size_t oocPartitions = 0;

    /** Fault-injection hooks for the spill files (testing only;
     *  see ooc::TestHooks). Not owned. */
    const ooc::TestHooks *testHooks = nullptr;
};

/** Per-BFS-level observability (frontier shape and wall time). */
struct LevelStats
{
    uint64_t frontierWidth = 0; ///< states expanded at this level
    uint64_t newStates = 0;     ///< states first reached here
    uint64_t newEdges = 0;      ///< edges recorded at this level
    double seconds = 0.0;       ///< wall-clock time for the level
};

/** Statistics matching the paper's Table 3.2 rows. */
struct EnumStats
{
    uint64_t numStates = 0;       ///< reachable states
    uint64_t numEdges = 0;        ///< recorded state-graph edges
    size_t bitsPerState = 0;      ///< packed state width
    double cpuSeconds = 0.0;      ///< enumeration CPU time
    size_t memoryBytes = 0;       ///< graph + hash table footprint
    uint64_t transitionsTried = 0; ///< choice tuples evaluated
    uint64_t transitionsValid = 0; ///< tuples that were legal actions

    size_t numShards = 1;         ///< state table partitions
    size_t minShardStates = 0;    ///< final occupancy, emptiest shard
    size_t maxShardStates = 0;    ///< final occupancy, fullest shard
    std::vector<LevelStats> levels; ///< per-BFS-level breakdown

    /** @name Paging under a memory budget (all zero without one) @{ */
    uint64_t spillBytesWritten = 0; ///< spill file bytes written
    uint64_t pageIns = 0;         ///< shard page-in operations
    uint64_t pageOuts = 0;        ///< shard page-out operations
    uint64_t spillFallbacks = 0;  ///< degraded-path events (see
                                  ///< enum.spill_fallbacks)
    /** High-water mark of the post-eviction resident table bytes;
     *  stays <= memoryBudgetBytes whenever spillFallbacks == 0. */
    size_t residencyHighWaterBytes = 0;
    /** @} */

    /** Render as an aligned table next to the paper's values. */
    std::string render() const;
};

/**
 * Runs the reachability search over a model and produces the state
 * graph. Single-use: construct, run(), read stats().
 */
class Enumerator
{
  public:
    /**
     * @param model Model to enumerate (must outlive the Enumerator).
     * @param options Search options.
     */
    explicit Enumerator(const fsm::Model &model, EnumOptions options = {});

    /**
     * Run BFS to a fixpoint.
     *
     * Never terminates the process: exceeding maxStates or a model
     * whose reset state width disagrees with its declared layout
     * come back as error results, so long-running callers (BugHunt,
     * fuzz campaigns) can skip the configuration and keep going.
     *
     * @return the complete reachable state graph (state 0 is reset),
     *         or an error describing why the search was abandoned.
     */
    Result<graph::StateGraph> run();

    /**
     * Convenience wrapper over run() for callers without a recovery
     * path: @return the graph, or throw FatalError on failure.
     */
    graph::StateGraph runOrThrow();

    /** @return statistics of the completed run. */
    const EnumStats &stats() const { return stats_; }

  private:
    const fsm::Model &model_;
    EnumOptions options_;
    EnumStats stats_;
};

} // namespace archval::murphi

#endif // ARCHVAL_MURPHI_ENUMERATOR_HH
