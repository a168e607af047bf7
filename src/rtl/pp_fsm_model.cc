#include "pp_fsm_model.hh"

#include <bit>

#include "support/status.hh"

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
    layout_ = fsm::StateLayout(stateVars_);

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
    codec_ = fsm::ChoiceCodec(choiceVars_);
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

BitVec
PpFsmModel::pack(const PpControlState &state) const
{
    BitVec packed(layout_.totalBits());
    layout_.set(packed, 0, static_cast<uint64_t>(state.rdClass));
    layout_.set(packed, 1, static_cast<uint64_t>(state.exClass));
    layout_.set(packed, 2, static_cast<uint64_t>(state.memClass));
    layout_.set(packed, 3, static_cast<uint64_t>(state.wbClass));
    layout_.set(packed, 4, state.fetchAlign);
    layout_.set(packed, 5, state.exDone);
    layout_.set(packed, 6, state.memDone);
    layout_.set(packed, 7, state.storePending);
    layout_.set(packed, 8, static_cast<uint64_t>(state.irefill));
    layout_.set(packed, 9, state.irefillCount);
    layout_.set(packed, 10, static_cast<uint64_t>(state.drefill));
    layout_.set(packed, 11, state.drefillCount);
    layout_.set(packed, 12, static_cast<uint64_t>(state.spill));
    layout_.set(packed, 13, state.spillCount);
    layout_.set(packed, 14, static_cast<uint64_t>(state.memPort));
    return packed;
}

PpControlState
PpFsmModel::unpack(const BitVec &packed) const
{
    PpControlState state;
    state.rdClass =
        static_cast<pp::InstrClass>(layout_.get(packed, 0));
    state.exClass =
        static_cast<pp::InstrClass>(layout_.get(packed, 1));
    state.memClass =
        static_cast<pp::InstrClass>(layout_.get(packed, 2));
    state.wbClass =
        static_cast<pp::InstrClass>(layout_.get(packed, 3));
    state.fetchAlign = static_cast<uint8_t>(layout_.get(packed, 4));
    state.exDone = layout_.get(packed, 5);
    state.memDone = layout_.get(packed, 6);
    state.storePending = layout_.get(packed, 7);
    state.irefill = static_cast<IRefill>(layout_.get(packed, 8));
    state.irefillCount =
        static_cast<uint8_t>(layout_.get(packed, 9));
    state.drefill = static_cast<DRefill>(layout_.get(packed, 10));
    state.drefillCount =
        static_cast<uint8_t>(layout_.get(packed, 11));
    state.spill = static_cast<Spill>(layout_.get(packed, 12));
    state.spillCount = static_cast<uint8_t>(layout_.get(packed, 13));
    state.memPort = static_cast<MemPort>(layout_.get(packed, 14));
    return state;
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
    const BitVec &state,
    const std::array<uint32_t, numPpChoiceVars> &values) const
{
    // Track which variables the control examines under these values.
    class TrackingInputs : public PpInputs
    {
      public:
        explicit TrackingInputs(
            const std::array<uint32_t, numPpChoiceVars> &values)
            : values_(values)
        {
        }

        uint32_t
        read(PpChoiceVar var) override
        {
            used_[static_cast<size_t>(var)] = true;
            return values_[static_cast<size_t>(var)];
        }

        bool used(size_t index) const { return used_[index]; }

      private:
        const std::array<uint32_t, numPpChoiceVars> &values_;
        std::array<bool, numPpChoiceVars> used_{};
    };

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

namespace
{

/**
 * PpInputs over a partial assignment: bound variables return their
 * value; unbound variables return 0 and are recorded in read order.
 */
class ForkingInputs : public PpInputs
{
  public:
    ForkingInputs(const std::array<int32_t, numPpChoiceVars> &bound)
        : bound_(bound)
    {
    }

    uint32_t
    read(PpChoiceVar var) override
    {
        size_t index = static_cast<size_t>(var);
        if (bound_[index] >= 0)
            return static_cast<uint32_t>(bound_[index]);
        if (!seen_[index]) {
            seen_[index] = true;
            readOrder_[numRead_++] = index;
        }
        return 0;
    }

    /** Unbound variables read during the run, in first-read order. */
    size_t numRead() const { return numRead_; }
    size_t readVar(size_t i) const { return readOrder_[i]; }

  private:
    const std::array<int32_t, numPpChoiceVars> &bound_;
    std::array<bool, numPpChoiceVars> seen_{};
    std::array<size_t, numPpChoiceVars> readOrder_{};
    size_t numRead_ = 0;
};

} // namespace

void
PpFsmModel::forEachTransition(
    const BitVec &state,
    const std::function<void(uint64_t, fsm::Transition &&)> &fn) const
{
    const PpControlState unpacked = unpack(state);

    // Partial assignment: -1 = unbound (reads as 0).
    std::array<int32_t, numPpChoiceVars> bound;
    bound.fill(-1);

    // Each run handles the subspace where all previously-bound
    // variables have their values and every *other* variable the
    // control reads is 0; it then forks each read-but-unbound
    // variable to its non-zero values, with the earlier read vars
    // pinned to 0 — a trie over read order, visiting each canonical
    // tuple exactly once.
    std::function<void()> explore = [&]() {
        ForkingInputs inputs(bound);
        PpOutputs outputs;
        PpControlState next_state =
            control_.step(unpacked, inputs, outputs);

        fsm::Choice choice(numPpChoiceVars, 0);
        for (size_t v = 0; v < numPpChoiceVars; ++v) {
            if (bound[v] >= 0)
                choice[v] = static_cast<uint32_t>(bound[v]);
        }
        fsm::Transition transition;
        transition.next = pack(next_state);
        transition.instructions = outputs.fetchCount;
        fn(codec_.encode(choice), std::move(transition));

        for (size_t i = 0; i < inputs.numRead(); ++i) {
            size_t var = inputs.readVar(i);
            uint32_t cardinality = choiceVars_[var].cardinality;
            for (uint32_t value = 1; value < cardinality; ++value) {
                bound[var] = static_cast<int32_t>(value);
                explore();
            }
            // Pin to 0 for the remaining forks at this level; the
            // caller's value (unbound) is restored afterwards.
            bound[var] = 0;
        }
        for (size_t i = 0; i < inputs.numRead(); ++i)
            bound[inputs.readVar(i)] = -1;
    };

    explore();
}

} // namespace archval::rtl
