#include "pp_fsm_model.hh"

#include <bit>

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::rtl
{

namespace
{

/** Bits needed to hold values 0..max_value. */
size_t
bitsFor(unsigned max_value)
{
    size_t bits = std::bit_width(max_value);
    return bits == 0 ? 1 : bits;
}

} // namespace

PpFsmModel::PpFsmModel(const PpConfig &config) : control_(config)
{
    const size_t count_bits = bitsFor(config.lineWords);
    const size_t align_bits = bitsFor(config.lineWords - 1);
    stateVars_ = {
        {"pipe.rd_class", 3, 0},
        {"pipe.ex_class", 3, 0},
        {"pipe.mem_class", 3, 0},
        {"pipe.wb_class", 3, 0},
        {"pc.align", align_bits, 0},
        {"pipe.ex_done", 1, 1},
        {"pipe.mem_done", 1, 1},
        {"store.pending", 1, 0},
        {"icache.refill", 2, 0},
        {"icache.count", count_bits, 0},
        {"dcache.refill", 2, 0},
        {"dcache.count", count_bits, 0},
        {"spill.state", 2, 0},
        {"spill.count", count_bits, 0},
        {"memctrl.port", 2, 0},
    };
    // PpControl bounds lineWords to 255, so the layout is at most
    // 12 + 8 + 3 + 3 * (2 + 8) + 2 = 55 bits: one word holds it.
    size_t offset = 0;
    for (size_t f = 0; f < numFields && f < stateVars_.size(); ++f) {
        const size_t width = stateVars_[f].numBits;
        shift_[f] = static_cast<uint8_t>(offset);
        mask_[f] = (uint64_t(1) << width) - 1;
        offset += width;
    }
    if (stateVars_.size() != numFields || offset > 64)
        panic("PP state layout does not fit its one-word pack");

    choiceVars_ = {
        {"icache.fetch_class", config.numClasses()},
        {"pipe.dual", config.dualIssue ? 2u : 1u},
        {"icache.hit", 2},
        {"dcache.hit", 2},
        {"dcache.dirty", 2},
        {"dcache.same_line", 2},
        {"inbox.ready", 2},
        {"outbox.ready", 2},
        {"memctrl.reply", 2},
        {"branch.taken", config.modelBranches ? 2u : 1u},
        {"branch.target_align",
         config.modelBranches && config.modelAlignment
             ? config.lineWords
             : 1u},
    };
    if (choiceVars_.size() != numPpChoiceVars)
        panic("choice variable list out of sync with PpChoiceVar");
    // Mixed-radix strides, variable 0 fastest (as in ChoiceCodec).
    uint64_t stride = 1;
    for (size_t v = 0; v < numPpChoiceVars; ++v) {
        stride_[v] = stride;
        stride *= choiceVars_[v].cardinality;
    }
}

const std::vector<fsm::StateVarInfo> &
PpFsmModel::stateVars() const
{
    return stateVars_;
}

const std::vector<fsm::ChoiceVarInfo> &
PpFsmModel::choiceVars() const
{
    return choiceVars_;
}

uint64_t
PpFsmModel::packWord(const PpControlState &state) const
{
    // Field order is stateVars_'s.
    const uint64_t fields[numFields] = {
        static_cast<uint64_t>(state.rdClass),
        static_cast<uint64_t>(state.exClass),
        static_cast<uint64_t>(state.memClass),
        static_cast<uint64_t>(state.wbClass),
        state.fetchAlign,
        state.exDone,
        state.memDone,
        state.storePending,
        static_cast<uint64_t>(state.irefill),
        state.irefillCount,
        static_cast<uint64_t>(state.drefill),
        state.drefillCount,
        static_cast<uint64_t>(state.spill),
        state.spillCount,
        static_cast<uint64_t>(state.memPort),
    };
    uint64_t word = 0;
    for (size_t f = 0; f < numFields; ++f)
        word |= (fields[f] & mask_[f]) << shift_[f];
    return word;
}

PpControlState
PpFsmModel::unpackWord(uint64_t word) const
{
    auto field = [&](size_t f) { return (word >> shift_[f]) & mask_[f]; };
    PpControlState state;
    state.rdClass = static_cast<pp::InstrClass>(field(0));
    state.exClass = static_cast<pp::InstrClass>(field(1));
    state.memClass = static_cast<pp::InstrClass>(field(2));
    state.wbClass = static_cast<pp::InstrClass>(field(3));
    state.fetchAlign = static_cast<uint8_t>(field(4));
    state.exDone = field(5);
    state.memDone = field(6);
    state.storePending = field(7);
    state.irefill = static_cast<IRefill>(field(8));
    state.irefillCount = static_cast<uint8_t>(field(9));
    state.drefill = static_cast<DRefill>(field(10));
    state.drefillCount = static_cast<uint8_t>(field(11));
    state.spill = static_cast<Spill>(field(12));
    state.spillCount = static_cast<uint8_t>(field(13));
    state.memPort = static_cast<MemPort>(field(14));
    return state;
}

BitVec
PpFsmModel::pack(const PpControlState &state) const
{
    const uint64_t word = packWord(state);
    return BitVec(stateBits(), std::span<const uint64_t>(&word, 1));
}

BitVec
PpFsmModel::resetState() const
{
    return pack(PpControl::resetState());
}

std::optional<fsm::Transition>
PpFsmModel::next(const BitVec &state, const fsm::Choice &choice) const
{
    ChoiceInputs inputs(choice);
    PpOutputs outputs;
    PpControlState next_state =
        control_.step(unpack(state), inputs, outputs);
    if (!inputs.canonical())
        return std::nullopt;
    fsm::Transition t;
    t.next = pack(next_state);
    t.instructions = outputs.fetchCount;
    return t;
}

PpOutputs
PpFsmModel::outputsFor(const PpControlState &state,
                       const fsm::Choice &choice) const
{
    ChoiceInputs inputs(choice);
    PpOutputs outputs;
    control_.step(state, inputs, outputs);
    return outputs;
}

fsm::Choice
PpFsmModel::canonicalize(
    std::span<const uint64_t> state,
    const std::array<uint32_t, numPpChoiceVars> &values) const
{
    // Track which variables the control examines under these values.
    TrackingInputs inputs(values);
    PpOutputs outputs;
    control_.step(unpack(state), inputs, outputs);

    fsm::Choice choice(numPpChoiceVars, 0);
    for (size_t v = 0; v < numPpChoiceVars; ++v) {
        if (inputs.used(v))
            choice[v] = values[v] % choiceVars_[v].cardinality;
    }
    return choice;
}

Result<bool>
PpFsmModel::forEachTransition(std::span<const uint64_t> state,
                              fsm::TransitionSink sink) const
{
    if (state.size() != 1) {
        return Result<bool>::error(formatString(
            "a PP control state is one word; got %zu", state.size()));
    }
    const PpControlState from = unpackWord(state[0]);

    // Partial assignment: -1 = unbound (reads as 0).
    std::array<int32_t, numPpChoiceVars> bound;
    bound.fill(-1);

    // Each run handles the subspace where all previously-bound
    // variables have their values (the choice code @p code) and
    // every *other* variable the control reads is 0; it then forks
    // each read-but-unbound variable to its non-zero values, with the
    // earlier read vars pinned to 0 — a trie over read order,
    // visiting each canonical tuple exactly once. A fork adds its
    // value times the variable's stride to the code; pinned zeros
    // add nothing.
    auto explore = [&](auto &self, uint64_t code) -> void {
        ForkingInputs inputs(bound);
        PpOutputs outputs;
        const uint64_t next =
            packWord(control_.step(from, inputs, outputs));
        sink(code, std::span<const uint64_t>(&next, 1),
             outputs.fetchCount);

        for (size_t i = 0; i < inputs.numRead(); ++i) {
            const size_t var = inputs.readVar(i);
            const uint32_t cardinality = choiceVars_[var].cardinality;
            for (uint32_t value = 1; value < cardinality; ++value) {
                bound[var] = static_cast<int32_t>(value);
                self(self, code + stride_[var] * value);
            }
            // Pin to 0 for the remaining forks at this level; the
            // caller's value (unbound) is restored afterwards.
            bound[var] = 0;
        }
        for (size_t i = 0; i < inputs.numRead(); ++i)
            bound[inputs.readVar(i)] = -1;
    };
    explore(explore, 0);
    return true;
}

} // namespace archval::rtl
