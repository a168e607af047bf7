/**
 * @file
 * Control logic of the Protocol Processor — the single definition
 * shared by the cycle-accurate RTL model and the FSM model.
 *
 * The paper derives its FSM model directly from the implementation
 * Verilog so that "bugs in the design are modeled and can be
 * exposed". This library gets the same property by construction: the
 * pure next-state function below *is* the implementation control, and
 * the FSM model (PpFsmModel) simply drives it with nondeterministic
 * abstract inputs while the RTL model (PpCore) drives it with real
 * (or forced) signals.
 *
 * The modeled network matches Figure 3.2: pipeline instruction
 * registers holding abstract instruction classes, the I-cache refill
 * FSM (with its post-stall fix-up cycle), the D-cache refill FSM with
 * critical-word-first restart, the fill-before-spill FSM with its
 * spill buffer, the split-store/cache-conflict FSM, the stall
 * machine, and the single shared memory-controller port.
 */

#ifndef ARCHVAL_RTL_PP_CONTROL_HH
#define ARCHVAL_RTL_PP_CONTROL_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "pp/isa.hh"
#include "rtl/pp_config.hh"

namespace archval::rtl
{

/** I-cache refill FSM states. */
enum class IRefill : uint8_t
{
    Idle = 0, ///< fetching normally
    Req,      ///< miss taken; requesting the memory port
    Fill,     ///< receiving line words from memory
    Fixup,    ///< restoring instruction registers after the stall
};

/** D-cache refill FSM states. */
enum class DRefill : uint8_t
{
    Idle = 0, ///< no refill in progress
    Req,      ///< miss taken; requesting the memory port
    CritWait, ///< waiting for the critical (missed-on) word
    Fill,     ///< critical word delivered; filling the rest of line
};

/** Fill-before-spill FSM states. */
enum class Spill : uint8_t
{
    Idle = 0, ///< spill buffer empty
    Hold,     ///< dirty victim parked in the spill buffer
    WbReq,    ///< refill done; requesting the port for writeback
    Wb,       ///< writing the spill buffer back to memory
};

/** Memory-controller port owner. */
enum class MemPort : uint8_t
{
    Free = 0,
    BusyD,  ///< D-cache refill
    BusyI,  ///< I-cache refill
    BusyWb, ///< spill-buffer writeback
};

/**
 * Latched control state. This is exactly the state the enumerator
 * packs into its state vectors; every field is architectural to the
 * control (no hidden RTL state feeds back into it).
 */
struct PpControlState
{
    pp::InstrClass rdClass = pp::InstrClass::None;  ///< RD stage
    pp::InstrClass exClass = pp::InstrClass::None;  ///< EX stage
    pp::InstrClass memClass = pp::InstrClass::None; ///< MEM stage
    pp::InstrClass wbClass = pp::InstrClass::None;  ///< WB stage
                                                    ///< (optional)
    uint8_t fetchAlign = 0; ///< PC offset within the I-cache line
                            ///< (optional; 0 when not modeled)
    bool exDone = true;   ///< EX-stage op finished its EX work
    bool memDone = true;  ///< MEM-stage op finished its access
    bool storePending = false; ///< split store's data write pending
    IRefill irefill = IRefill::Idle;
    uint8_t irefillCount = 0; ///< words left in the I-refill
    DRefill drefill = DRefill::Idle;
    uint8_t drefillCount = 0; ///< words left after the critical one
    Spill spill = Spill::Idle;
    uint8_t spillCount = 0; ///< words left in the writeback
    MemPort memPort = MemPort::Free;

    bool operator==(const PpControlState &other) const = default;

    /** @return compact rendering for debug and edge dumps. */
    std::string toString() const;
};

/** Identifiers of the abstract (choice) inputs to the control. */
enum class PpChoiceVar : uint8_t
{
    FetchClass = 0, ///< class of the instruction being fetched
    Dual,           ///< second (control-neutral) ALU op in the packet
    IHit,           ///< I-cache tag probe outcome
    DHit,           ///< D-cache tag probe outcome
    Dirty,          ///< victim line dirty (spill needed) on a D-miss
    SameLine,       ///< load address matches the pending store's line
    InboxReady,     ///< Inbox can service a SWITCH
    OutboxReady,    ///< Outbox can accept a SEND
    MemReply,       ///< memory returns a word beat this cycle
    BranchTaken,    ///< EX-stage branch resolves taken (extension)
    TargetAlign,    ///< taken-branch target alignment in its line
    NumVars,
};

/** Number of abstract input variables. */
constexpr size_t numPpChoiceVars =
    static_cast<size_t>(PpChoiceVar::NumVars);

/** @return printable name of a choice variable. */
const char *ppChoiceVarName(PpChoiceVar var);

/**
 * One cycle of abstract input values packed into 16 bits, the form
 * test traces store and vector mode forces. The fields are in
 * PpChoiceVar order with var 0 in the most significant bits: fetch
 * class 3 bits, each of the nine flag variables 1 bit, target
 * alignment 4 bits. Every field sits above all later ones, so
 * comparing two packed words orders them exactly as comparing the
 * rows they pack (std::array's lexicographic order).
 */
using PackedSignals = uint16_t;

/** Width in bits of each PpChoiceVar's PackedSignals field. */
inline constexpr std::array<unsigned, numPpChoiceVars> packedSignalBits{
    3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4};

/** Bit position of each PpChoiceVar's PackedSignals field (var 0
 *  most significant). */
inline constexpr std::array<unsigned, numPpChoiceVars> packedSignalShift =
    [] {
        std::array<unsigned, numPpChoiceVars> shift{};
        unsigned low = 0;
        for (size_t v = numPpChoiceVars; v-- > 0;) {
            shift[v] = low;
            low += packedSignalBits[v];
        }
        return shift;
    }();

static_assert(packedSignalShift[0] + packedSignalBits[0] ==
                  8 * sizeof(PackedSignals),
              "the PackedSignals fields must fill exactly 16 bits");

/**
 * Sources of the control's abstract inputs.
 *
 * PpControl::step() is a template over its input source, which it
 * calls as `uint32_t read(PpChoiceVar var)`. The control reads an
 * input only in cycles where it is relevant, so a source can record
 * which variables were consumed: the FSM model rejects non-canonical
 * choice tuples (unconsumed variables must be zero) — this implements
 * the paper's constrained abstract blocks. step() is instantiated in
 * pp_control.cc for the five sources below and no others, so no read
 * is a virtual call.
 */

/** Inputs read from a choice tuple, recording which variables were
 *  consumed (the FSM model's next()). */
class ChoiceInputs
{
  public:
    /** @param choice One value per PpChoiceVar, in enum order; must
     *  outlive the inputs. */
    explicit ChoiceInputs(std::span<const uint32_t> choice)
        : choice_(choice)
    {
    }

    uint32_t
    read(PpChoiceVar var)
    {
        const size_t index = static_cast<size_t>(var);
        used_[index] = true;
        return choice_[index];
    }

    /** @return true when every non-zero component was consumed. */
    bool
    canonical() const
    {
        for (size_t i = 0; i < numPpChoiceVars; ++i) {
            if (!used_[i] && choice_[i] != 0)
                return false;
        }
        return true;
    }

  private:
    std::span<const uint32_t> choice_;
    std::array<bool, numPpChoiceVars> used_{};
};

/** Inputs over concrete signal values: the RTL model and the vector
 *  player, where values come from real wires or from force/release
 *  commands. */
class SignalInputs
{
  public:
    /** Set the value of @p var for this cycle. */
    void
    set(PpChoiceVar var, uint32_t value)
    {
        values_[static_cast<size_t>(var)] = value;
    }

    uint32_t
    read(PpChoiceVar var) const
    {
        return values_[static_cast<size_t>(var)];
    }

  private:
    std::array<uint32_t, numPpChoiceVars> values_{};
};

/** Inputs over one PackedSignals word: the vector player, which
 *  forces each cycle's word straight from its trace. A read is a
 *  shift and a mask, so no row is unpacked for variables the control
 *  never consumes. */
class PackedInputs
{
  public:
    explicit PackedInputs(PackedSignals word) : word_(word) {}

    uint32_t
    read(PpChoiceVar var) const
    {
        const size_t index = static_cast<size_t>(var);
        return (uint32_t{word_} >> packedSignalShift[index]) &
               ((uint32_t{1} << packedSignalBits[index]) - 1);
    }

  private:
    PackedSignals word_;
};

/** Inputs over a partial assignment, for the FSM model's sparse
 *  step: bound variables return their value; unbound ones return 0
 *  and are recorded in first-read order. */
class ForkingInputs
{
  public:
    /** @param bound Per variable its value, or -1 when unbound; must
     *  outlive the inputs. */
    explicit ForkingInputs(const std::array<int32_t, numPpChoiceVars> &bound)
        : bound_(bound)
    {
    }

    uint32_t
    read(PpChoiceVar var)
    {
        const size_t index = static_cast<size_t>(var);
        if (bound_[index] >= 0)
            return static_cast<uint32_t>(bound_[index]);
        const uint32_t bit = uint32_t(1) << index;
        if (!(seen_ & bit)) {
            seen_ |= bit;
            readOrder_[numRead_++] = static_cast<uint8_t>(index);
        }
        return 0;
    }

    /** @return how many unbound variables the step read. */
    size_t numRead() const { return numRead_; }

    /** @return the @p i-th unbound variable read, in read order. */
    size_t readVar(size_t i) const { return readOrder_[i]; }

  private:
    const std::array<int32_t, numPpChoiceVars> &bound_;
    uint32_t seen_ = 0;
    std::array<uint8_t, numPpChoiceVars> readOrder_{};
    size_t numRead_ = 0;
};

/** Inputs over arbitrary per-variable values, recording which
 *  variables were consumed (the FSM model's canonicalize()). */
class TrackingInputs
{
  public:
    /** @param values One value per PpChoiceVar; must outlive the
     *  inputs. */
    explicit TrackingInputs(
        const std::array<uint32_t, numPpChoiceVars> &values)
        : values_(values)
    {
    }

    uint32_t
    read(PpChoiceVar var)
    {
        used_[static_cast<size_t>(var)] = true;
        return values_[static_cast<size_t>(var)];
    }

    /** @return whether the step read variable @p index. */
    bool used(size_t index) const { return used_[index]; }

  private:
    const std::array<uint32_t, numPpChoiceVars> &values_;
    std::array<bool, numPpChoiceVars> used_{};
};

/** Per-cycle control outputs consumed by the datapath (RTL model). */
struct PpOutputs
{
    bool fetch = false;          ///< a packet enters RD this cycle
    pp::InstrClass fetchClass = pp::InstrClass::None;
    unsigned fetchCount = 0;     ///< instructions in the packet (0-2)
    bool iMissStart = false;     ///< fetch missed; I-refill begins

    bool frozen = false;   ///< pipe held this cycle
    bool dStall = false;   ///< MEM-stage op unfinished
    bool extStall = false; ///< SWITCH/SEND waiting on Inbox/Outbox
    bool iStall = false;   ///< fetch unavailable this cycle

    bool probe = false;        ///< D-cache tag probe performed
    bool loadHit = false;      ///< probe was a load hit
    bool storeProbe = false;   ///< probe was a store hit (split store)
    bool storeCommit = false;  ///< pending store data written
    bool conflict = false;     ///< conflict stall taken this cycle
    bool dMissStart = false;   ///< probe missed; D-refill begins
    bool spillCopy = false;    ///< victim copied to the spill buffer
    bool spillBlocked = false; ///< miss blocked on a busy spill buffer
    bool critWord = false;     ///< critical word delivered (restart)
    bool dFillBeat = false;    ///< non-critical refill word accepted
    bool dRefillDone = false;  ///< last refill word accepted
    bool iFillBeat = false;    ///< I-refill word accepted
    bool iRefillDone = false;  ///< last I-refill word accepted
    bool fixup = false;        ///< I-refill fix-up cycle completes
    bool wbBeat = false;       ///< writeback beat sent to memory
    bool wbDone = false;       ///< writeback finished

    bool inboxPop = false;   ///< SWITCH consumed an Inbox word
    bool outboxPush = false; ///< SEND delivered a word to the Outbox
    bool branchTaken = false; ///< EX branch squashes younger stages
    bool advance = false;     ///< pipeline registers shifted

    bool operator==(const PpOutputs &other) const = default;
};

/**
 * The pure synchronous next-state function of the PP control.
 *
 * Deterministic given (state, inputs); reads inputs only when they
 * are relevant in the current state.
 */
class PpControl
{
  public:
    /**
     * @param config Model parameters (line length, feature flags).
     * Throws FatalError when config.lineWords is outside
     * [1, PpConfig::maxLineWords]: the refill and writeback counters
     * are 8 bits wide.
     */
    explicit PpControl(const PpConfig &config);

    /** @return the reset control state. */
    static PpControlState resetState() { return PpControlState{}; }

    /**
     * Advance one clock.
     *
     * @param state Current latched state.
     * @param inputs Abstract input source for this cycle: a
     *               ChoiceInputs, SignalInputs, PackedInputs,
     *               ForkingInputs or TrackingInputs (the
     *               instantiations pp_control.cc provides).
     * @param[out] outputs Derived control outputs for the datapath.
     * @return the next latched state.
     */
    template <typename Inputs>
    PpControlState step(const PpControlState &state, Inputs &inputs,
                        PpOutputs &outputs) const;

    /** @return the configuration. */
    const PpConfig &config() const { return config_; }

  private:
    PpConfig config_;
};

} // namespace archval::rtl

#endif // ARCHVAL_RTL_PP_CONTROL_HH
