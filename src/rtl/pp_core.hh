/**
 * @file
 * Cycle-accurate model of the Protocol Processor — the "RTL
 * implementation" of Figure 3.1.
 *
 * The core drives the shared PpControl next-state function with real
 * (program mode) or forced (vector mode) interface signals and moves
 * architectural data accordingly:
 *
 *  - Program mode: a complete dual-issue in-order processor. Real PC,
 *    real (tags-only) I- and D-cache arrays with LRU / dirty bits /
 *    spill buffer, real branch resolution, a latency-modelled memory
 *    controller port, and Inbox/Outbox queue models. Used by the
 *    directed-test baseline and the examples.
 *  - Vector mode: the simulation target of the paper's methodology.
 *    Interface signals (cache hits, readiness, memory replies) are
 *    forced cycle-by-cycle from generated test vectors — the
 *    "force/release" commands of Section 3.3 — and instructions come
 *    from the abstract I-cache's chosen stream.
 *
 * Architectural data always lives in a flat backing store (the cache
 * arrays hold tags, not data), so the machine is sequentially
 * equivalent to the instruction-level reference simulator unless one
 * of the six injectable Table 2.1 bugs corrupts a value.
 *
 * Datapath timing contract: each instruction performs its register
 * and memory effects at its retire point (when its packet leaves the
 * MEM stage), in program order. The two in-order exceptions mirror
 * the real statically-scheduled PP: branch outcomes are read in EX
 * (the scheduler must keep a branch's sources two packets away from
 * their producer), and split-store data writes drain in the
 * background under the conflict FSM's protection.
 */

#ifndef ARCHVAL_RTL_PP_CORE_HH
#define ARCHVAL_RTL_PP_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pp/isa.hh"
#include "pp/ref_sim.hh"
#include "rtl/faults.hh"
#include "rtl/pp_control.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval::rtl
{

/** Operating mode (see file comment). */
enum class CoreMode
{
    Program, ///< fetch from program memory via a real PC
    Vector,  ///< fetch from a generated stream; signals forced
};

/** One cycle of forced signal values, one per PpChoiceVar (the
 *  unpacked form of a PackedSignals word, declared in
 *  pp_control.hh). */
using ForcedSignals = std::array<uint32_t, numPpChoiceVars>;

/** @return true when @p value fits @p var's PackedSignals field. */
constexpr bool
fitsPackedSignal(size_t var, uint32_t value)
{
    return (value >> packedSignalBits[var]) == 0;
}

/** @return @p signals packed, or nothing when a value does not fit
 *  its field. */
std::optional<PackedSignals> packSignals(const ForcedSignals &signals);

/**
 * @return the decode table: entry p is the row that p packs (64 Ki
 * entries, built once per process on first use). Loops that decode
 * every cycle take this reference once, outside the loop; the core
 * itself never unpacks a row (it reads the word through
 * PackedInputs).
 */
const std::vector<ForcedSignals> &unpackTable();

/** Memory/interface timing knobs for program mode. */
struct CoreTiming
{
    unsigned memLatency = 3;       ///< cycles to the first reply beat
    unsigned outboxCapacity = 2;   ///< entries before SEND stalls
    unsigned outboxDrainCycles = 4; ///< cycles per outbox drain
};

/**
 * The Protocol Processor core.
 */
class PpCore
{
  public:
    /**
     * @param config Machine parameters (shared with PpFsmModel).
     * @param mode Program or Vector operation.
     */
    explicit PpCore(const PpConfig &config,
                    CoreMode mode = CoreMode::Program);

    /** @name Program-mode setup @{ */
    /** Load @p program and reset the machine. */
    void loadProgram(std::vector<uint32_t> program);
    /** Set program-mode timing knobs. */
    void setTiming(const CoreTiming &timing) { timing_ = timing; }
    /** @} */

    /** @name Vector-mode setup @{ */
    /** Load the fetch stream chosen by the test generator. */
    void loadStream(std::vector<uint32_t> stream);
    /** Set the forced interface signals for the next cycle: one
     *  packed word, as test traces store it. */
    void
    forceSignals(PackedSignals signals)
    {
        forced_ = signals;
        forcedValid_ = true;
    }
    /** @} */

    /** Provide Inbox contents (consumed by SWITCH). */
    void setInbox(std::deque<uint32_t> inbox);

    /** @name Checkpointing (value-semantics snapshots) @{ */
    /**
     * Opaque bit-exact checkpoint of the whole core: control state,
     * architectural data, pipeline packets, stream/inbox positions,
     * cycle and retire counters, bug bookkeeping. Cheap to copy and
     * share (immutable, reference-counted); restore() resumes as if
     * the run had never stopped.
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        /** @return true when this snapshot holds a state. */
        bool valid() const { return state_ != nullptr; }
        /** @return approximate heap+object footprint in bytes. */
        size_t bytes() const;
        /** @return cycles executed at capture time. */
        uint64_t cycles() const;

        /**
         * Serialize to a self-contained byte record for the pins of
         * the replay engine's warm rows (which the service's session
         * store persists). Same-host format (native endianness and struct
         * layout), versioned and tagged with the capture
         * configuration so deserializeSnapshot() can reject foreign
         * records. @return an empty vector for an invalid snapshot.
         */
        std::vector<uint8_t> serialize() const;

      private:
        friend class PpCore;
        std::shared_ptr<const PpCore> state_;
    };

    /** @return a bit-exact checkpoint of the current state. */
    Snapshot snapshot() const;

    /**
     * Rebuild a snapshot from Snapshot::serialize() bytes.
     * @return an invalid snapshot when the record is malformed,
     * truncated, or was captured under a different configuration or
     * mode — callers fall back to from-reset replay rather than
     * trusting damaged bytes.
     */
    static Snapshot deserializeSnapshot(const PpConfig &config,
                                        CoreMode mode,
                                        const uint8_t *data,
                                        size_t size);

    /** Resume from @p snap (same config and mode required). */
    void restore(const Snapshot &snap);

    /**
     * Resume from @p snap and force the enabled-bug mask to @p bugs.
     *
     * This is the cross-bug-set restore of the tiered checkpoint
     * scheme: fault effects are strictly guarded by their trigger
     * conjunctions and trigger cycles are recorded whether or not a
     * bug is enabled, so a snapshot whose cycle count lies strictly
     * below every first-trigger cycle of @p bugs (on the donor run)
     * is bit-identical to the state a run with @p bugs enabled would
     * have reached — except for the mask itself, which this call
     * re-arms. The caller owns that validity check.
     */
    void restoreWithBugs(const Snapshot &snap, const BugSet &bugs);

    /** @return approximate footprint of one snapshot of this core. */
    size_t snapshotBytes() const;
    /** @} */

    /** Preload a data-memory word. */
    void pokeDmem(uint32_t word_index, uint32_t value);

    /** Enable or disable an injectable bug. */
    void setBug(BugId bug, bool enable);

    /** @return the enabled bug set. */
    const BugSet &bugs() const { return bugs_; }

    /**
     * @return the first cycle at which @p bug's trigger conjunction
     * held on this run — evaluated whether or not the bug is enabled
     * — or UINT64_MAX when it never held. Because every injected
     * fault's effect is strictly guarded by its trigger conjunction,
     * a run with @p bug enabled is bit-identical to this run through
     * any prefix ending at or before the returned cycle; if the
     * trigger never held, through the entire run. The replay engine
     * uses this to resume (or wholly reuse) bug-free replays for
     * bugged ones.
     */
    uint64_t bugFirstTrigger(BugId bug) const
    {
        return bugFirstTrigger_[static_cast<size_t>(bug)];
    }

    /** Advance one clock. @return false once halted (program mode). */
    bool step();

    /** Run up to @p max_cycles or until halt. @return cycles run. */
    uint64_t run(uint64_t max_cycles = 1'000'000);

    /** @return true when no instruction is in flight and all control
     *  FSMs are idle (used to drain vector traces). */
    bool pipeEmpty() const;

    /** @return true after HALT retired (program mode). */
    bool halted() const { return halted_; }

    /** @return the architectural state (same shape as RefSim's). */
    pp::ArchState archState() const;

    /** @return the current control state (for lockstep checks). */
    const PpControlState &controlState() const { return control_; }

    /** @return the outputs of the most recent cycle. */
    const PpOutputs &lastOutputs() const { return lastOutputs_; }

    /** @return total clock cycles executed. */
    uint64_t cycles() const { return cycles_; }

    /** @return instructions retired (architecturally executed). */
    uint64_t instructionsRetired() const { return retired_; }

    /** @return instructions consumed from the vector-mode stream. */
    uint64_t streamConsumed() const { return streamPos_; }

    /** @return register @p index. */
    uint32_t reg(unsigned index) const { return regs_[index & 31]; }

    /** @return one-line pipeline/waveform dump for this cycle (used
     *  by the bug #5 timing-diagram bench). */
    std::string waveLine() const;

  private:
    /** One instruction occupying a pipeline slot. */
    struct MicroOp
    {
        uint32_t word = 0;
        pp::DecodedInstr d;
        uint32_t pc = 0;
        uint32_t memAddr = 0;      ///< byte address (mem ops)
        bool addrValid = false;
        uint32_t inboxValue = 0;   ///< value popped by SWITCH
        bool inboxValid = false;
        bool corruptToNop = false; ///< bug1/bug4 effect
        bool valueCorrupt = false; ///< bug2/bug5 effect
        bool useStale = false;     ///< bug6 effect
        uint32_t staleValue = 0;
    };

    /** A fetch packet (1 or 2 micro-ops). */
    struct Packet
    {
        std::array<MicroOp, 2> ops;
        unsigned count = 0;
        bool valid = false;
    };

    /** Tags-only cache way. */
    struct CacheLine
    {
        bool valid = false;
        bool dirty = false;
        uint32_t tag = 0;
    };

    void reset();

    /** Append the whole machine state to @p out (Snapshot::serialize). */
    void serializeInto(std::vector<uint8_t> &out) const;

    /** Overwrite this core's state from serializeInto() bytes.
     *  @return false (state unspecified) on any mismatch. */
    bool deserializeFrom(const uint8_t *data, size_t size);

    /** Build this cycle's control inputs (program mode). */
    SignalInputs computeSignals();

    /** Fetch the next packet (mode dependent) into @p packet, a
     *  free (invalid) pipeline slot. */
    void fetchPacket(Packet &packet, pp::InstrClass cls, unsigned count);

    /** Architecturally execute @p packet (retire point) and free its
     *  slot. */
    void retirePacket(Packet &packet);

    /** @name Pipeline stages: slots of the packet ring @{ */
    Packet &rdPacket() { return pipe_[pipeHead_]; }
    Packet &exPacket() { return pipe_[(pipeHead_ + 1) % 3]; }
    Packet &memPacket() { return pipe_[(pipeHead_ + 2) % 3]; }
    const Packet &rdPacket() const { return pipe_[pipeHead_]; }
    const Packet &exPacket() const { return pipe_[(pipeHead_ + 1) % 3]; }
    const Packet &memPacket() const { return pipe_[(pipeHead_ + 2) % 3]; }
    /** @} */

    /** Execute one micro-op at retire. */
    void retireOp(MicroOp &op);

    /** @return byte address of a mem op, masked into dmem. */
    uint32_t effectiveAddress(const MicroOp &op) const;

    /** D-cache index/tag helpers (program mode). @{ */
    uint32_t dcacheSetOf(uint32_t addr) const;
    uint32_t dcacheTagOf(uint32_t addr) const;
    bool dcacheProbe(uint32_t addr) const;
    bool dcacheVictimDirty(uint32_t addr) const;
    void dcacheFill(uint32_t addr);
    void dcacheMarkDirty(uint32_t addr);
    bool icacheProbe(uint32_t pc) const;
    void icacheFill(uint32_t pc);
    /** @} */

    /** @return true when @p a and @p b share a cache line. */
    bool sameLine(uint32_t a, uint32_t b) const;

    PpConfig config_;
    CoreMode mode_;
    CoreTiming timing_;
    PpControl controller_;
    PpControlState control_;
    PpOutputs lastOutputs_;
    BugSet bugs_;

    // Architectural state.
    std::array<uint32_t, 32> regs_{};
    std::vector<uint32_t> dmem_;
    std::vector<uint32_t> outbox_;
    std::deque<uint32_t> inbox_;

    // Program mode.
    std::vector<uint32_t> program_;
    uint32_t pc_ = 0;
    std::vector<CacheLine> icacheLines_;
    std::vector<CacheLine> dcacheLines_; // sets * ways
    std::vector<uint8_t> dcacheLru_;     // way to evict next, per set
    uint32_t drefillAddr_ = 0; ///< line being D-refilled
    uint32_t irefillPc_ = 0;   ///< line being I-refilled
    unsigned memWait_ = 0;     ///< cycles until the next reply beat
    unsigned outboxDrain_ = 0; ///< cycles until the next outbox drain
    size_t outboxOccupancy_ = 0;

    // Vector mode.
    std::vector<uint32_t> stream_;
    size_t streamPos_ = 0;
    PackedSignals forced_ = 0;
    bool forcedValid_ = false;

    // Pipeline: the RD, EX and MEM packets in a ring. RD is
    // pipe_[pipeHead_], EX and MEM follow it; an advancing cycle
    // moves the head back one slot, so EX and MEM take over the old
    // RD and EX packets in place and RD reuses the retired MEM slot.
    std::array<Packet, 3> pipe_{};
    uint8_t pipeHead_ = 0;

    // Split store data write.
    struct PendingStore
    {
        bool valid = false;
        uint32_t addr = 0;
        uint32_t data = 0;
    } pendingStore_;

    // Bug bookkeeping.
    bool bug1Armed_ = false;  ///< corrupt next fetched instruction
    bool bug4Armed_ = false;  ///< fix-up was held while frozen
    struct Bug5Window
    {
        bool open = false;
        uint8_t reg = 0;
        uint32_t garbage = 0;
    } bug5_;

    /** Record a bug trigger conjunction holding this cycle. */
    void noteBugTrigger(BugId bug)
    {
        size_t i = static_cast<size_t>(bug);
        if (bugFirstTrigger_[i] == UINT64_MAX)
            bugFirstTrigger_[i] = cycles_;
    }

    /** First trigger cycle per bug; see bugFirstTrigger(). */
    std::array<uint64_t, numBugs> bugFirstTrigger_ = [] {
        std::array<uint64_t, numBugs> a{};
        a.fill(UINT64_MAX);
        return a;
    }();

    bool halted_ = false;
    uint64_t cycles_ = 0;
    uint64_t retired_ = 0;
};

} // namespace archval::rtl

#endif // ARCHVAL_RTL_PP_CORE_HH
