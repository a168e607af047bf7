#include "model.hh"

#include "support/strings.hh"

namespace archval::fsm
{

ChoiceCodec::ChoiceCodec(std::vector<ChoiceVarInfo> vars)
    : vars_(std::move(vars))
{
    strides_.resize(vars_.size());
    for (size_t i = 0; i < vars_.size(); ++i) {
        if (vars_[i].cardinality == 0)
            fatal("choice variable '" + vars_[i].name +
                  "' has zero cardinality");
        strides_[i] = combos_;
        // Overflow check: the packed code must fit in 64 bits.
        if (combos_ > UINT64_MAX / vars_[i].cardinality)
            fatal("choice space exceeds 2^64 combinations");
        combos_ *= vars_[i].cardinality;
    }
}

uint64_t
ChoiceCodec::encode(const Choice &choice) const
{
    if (choice.size() != vars_.size())
        panic("ChoiceCodec::encode arity mismatch");
    uint64_t code = 0;
    for (size_t i = 0; i < vars_.size(); ++i) {
        if (choice[i] >= vars_[i].cardinality)
            panic("ChoiceCodec::encode value out of range for '" +
                  vars_[i].name + "'");
        code += strides_[i] * choice[i];
    }
    return code;
}

Choice
ChoiceCodec::decode(uint64_t code) const
{
    Choice choice(vars_.size());
    for (size_t i = 0; i < vars_.size(); ++i) {
        choice[i] = static_cast<uint32_t>((code / strides_[i]) %
                                          vars_[i].cardinality);
    }
    return choice;
}

uint32_t
ChoiceCodec::component(uint64_t code, size_t var) const
{
    if (var >= vars_.size())
        panic("ChoiceCodec::component out of range");
    return static_cast<uint32_t>((code / strides_[var]) %
                                 vars_[var].cardinality);
}

size_t
Model::stateBits() const
{
    size_t bits = 0;
    for (const auto &var : stateVars())
        bits += var.numBits;
    return bits;
}

ChoiceCodec
Model::makeChoiceCodec() const
{
    return ChoiceCodec(choiceVars());
}

Result<bool>
Model::forEachTransition(std::span<const uint64_t> state,
                         TransitionSink sink) const
{
    const size_t bits = stateBits();
    const BitVec from(bits, state);
    const ChoiceCodec codec = makeChoiceCodec();
    const auto &vars = codec.vars();
    Choice choice(vars.size(), 0);

    const uint64_t combos = codec.numCombinations();
    for (uint64_t code = 0; code < combos; ++code) {
        const std::optional<Transition> transition = next(from, choice);
        if (transition) {
            if (transition->next.numBits() != bits) {
                return Result<bool>::error(formatString(
                    "model produced a %zu-bit state but the state "
                    "layout declares %zu",
                    transition->next.numBits(), bits));
            }
            sink(code, transition->next.words(),
                 transition->instructions);
        }
        // Mixed-radix increment matching packed-code order.
        for (size_t i = 0; i < choice.size(); ++i) {
            if (++choice[i] < vars[i].cardinality)
                break;
            choice[i] = 0;
        }
    }
    return true;
}

std::string
Model::describeState(const BitVec &state) const
{
    StateLayout layout(stateVars());
    std::string out;
    const auto &vars = stateVars();
    for (size_t i = 0; i < vars.size(); ++i) {
        if (i)
            out += ", ";
        out += formatString("%s=%llu", vars[i].name.c_str(),
                            static_cast<unsigned long long>(
                                layout.get(state, i)));
    }
    return out;
}

std::string
Model::describeChoice(const Choice &choice) const
{
    std::string out;
    const auto &vars = choiceVars();
    for (size_t i = 0; i < vars.size() && i < choice.size(); ++i) {
        if (i)
            out += ", ";
        out += formatString("%s=%u", vars[i].name.c_str(), choice[i]);
    }
    return out;
}

StateLayout::StateLayout(const std::vector<StateVarInfo> &vars)
{
    offsets_.reserve(vars.size());
    widths_.reserve(vars.size());
    names_.reserve(vars.size());
    for (const auto &var : vars) {
        offsets_.push_back(totalBits_);
        widths_.push_back(var.numBits);
        names_.push_back(var.name);
        totalBits_ += var.numBits;
    }
}

size_t
StateLayout::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return i;
    }
    panic("StateLayout: unknown variable '" + name + "'");
}

uint64_t
StateLayout::get(const BitVec &state, size_t var) const
{
    return state.getField(offsets_[var], widths_[var]);
}

void
StateLayout::set(BitVec &state, size_t var, uint64_t value) const
{
    state.setField(offsets_[var], widths_[var], value);
}

uint64_t
StateLayout::getByName(const BitVec &state, const std::string &name) const
{
    return get(state, indexOf(name));
}

} // namespace archval::fsm
