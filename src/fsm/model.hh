/**
 * @file
 * Synchronous FSM model interface — the central IR of the library.
 *
 * A Model is the "Synchronous Murphi" view of a design: a set of
 * latched state variables packed into a bit vector, advanced once per
 * implicit clock by a next-state function, with the environment
 * (abstract datapath, abstract interface units) injecting a tuple of
 * nondeterministic choices each cycle. The explicit-state enumerator
 * (murphi::Enumerator) explores every choice tuple from every reached
 * state, exactly as the paper describes in Section 3.2.
 *
 * Two producers implement this interface:
 *  - fsm::HdlModel, built by translating annotated mini-Verilog
 *    (Section 3.1's translator), and
 *  - fsm::PpFsmModel, the programmatic FSM network of the FLASH
 *    Protocol Processor control (Figure 3.2), sharing its next-state
 *    logic with the cycle-accurate RTL model.
 */

#ifndef ARCHVAL_FSM_MODEL_HH
#define ARCHVAL_FSM_MODEL_HH

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/bitvec.hh"
#include "support/status.hh"

namespace archval::fsm
{

/** Description of one latched state variable (for layout and debug). */
struct StateVarInfo
{
    std::string name;   ///< hierarchical name, e.g. "dcache.refill"
    size_t numBits;     ///< width of the packed field
    uint64_t resetValue; ///< value at the given reset state
};

/**
 * Description of one nondeterministic choice variable.
 *
 * Each cycle the environment picks a value in [0, cardinality). These
 * correspond to the paper's abstract blocks that "non-deterministically
 * choose one of several possible actions".
 */
struct ChoiceVarInfo
{
    std::string name;   ///< e.g. "icache.hit", "pipe.fetch_class"
    uint32_t cardinality; ///< number of alternative actions
};

/** One concrete choice tuple: a value per choice variable. */
using Choice = std::vector<uint32_t>;

/**
 * Mixed-radix codec between a Choice tuple and a single uint64 code.
 *
 * Edge labels in the state graph store the packed code; the vector
 * generator decodes it back to per-variable values when emitting
 * force/release commands.
 */
class ChoiceCodec
{
  public:
    ChoiceCodec() = default;

    /** Build a codec for the given choice variables. */
    explicit ChoiceCodec(std::vector<ChoiceVarInfo> vars);

    /** @return the choice variable descriptors. */
    const std::vector<ChoiceVarInfo> &vars() const { return vars_; }

    /** @return the product of all cardinalities. */
    uint64_t numCombinations() const { return combos_; }

    /** Pack @p choice into a single code. */
    uint64_t encode(const Choice &choice) const;

    /** Unpack @p code into a per-variable tuple. */
    Choice decode(uint64_t code) const;

    /** @return component @p var of @p code without a full decode. */
    uint32_t component(uint64_t code, size_t var) const;

  private:
    std::vector<ChoiceVarInfo> vars_;
    std::vector<uint64_t> strides_;
    uint64_t combos_ = 1;
};

/** Result of one legal transition, as next() returns it. */
struct Transition
{
    BitVec next;              ///< next packed state
    unsigned instructions = 0; ///< instructions consumed by the edge
};

/**
 * Where Model::forEachTransition reports the transitions out of one
 * state: a non-owning reference to a callable
 * `void(uint64_t code, std::span<const uint64_t> next, unsigned
 * instructions)`, built from a lambda at the call site. It holds two
 * pointers and allocates nothing; the callable must outlive it, so a
 * sink is passed down, never stored.
 *
 * `next` holds the next state's packed words (bit 0 is the LSB of
 * word 0) and is valid only during the call.
 */
class TransitionSink
{
  public:
    template <typename Fn>
        requires(!std::same_as<std::remove_cvref_t<Fn>, TransitionSink> &&
                 std::invocable<Fn &, uint64_t, std::span<const uint64_t>,
                                unsigned>)
    TransitionSink(Fn &&fn)
        : target_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *target, uint64_t code,
                   std::span<const uint64_t> next, unsigned instructions) {
              (*static_cast<std::remove_reference_t<Fn> *>(target))(
                  code, next, instructions);
          })
    {
    }

    /** Report one legal transition. */
    void
    operator()(uint64_t code, std::span<const uint64_t> next,
               unsigned instructions) const
    {
        call_(target_, code, next, instructions);
    }

  private:
    void *target_;
    void (*call_)(void *, uint64_t, std::span<const uint64_t>, unsigned);
};

/**
 * Abstract synchronous FSM model.
 *
 * Implementations must be deterministic: next() depends only on the
 * packed state and the choice tuple.
 */
class Model
{
  public:
    virtual ~Model() = default;

    /** @return a human-readable model name for reports. */
    virtual std::string name() const = 0;

    /** @return descriptors of the latched state variables, in layout
     *  order; the packed state width is the sum of widths. */
    virtual const std::vector<StateVarInfo> &stateVars() const = 0;

    /** @return descriptors of the nondeterministic choice variables. */
    virtual const std::vector<ChoiceVarInfo> &choiceVars() const = 0;

    /** @return the packed reset state. */
    virtual BitVec resetState() const = 0;

    /**
     * Advance one clock.
     *
     * @param state Current packed state.
     * @param choice One value per choice variable.
     * @return The transition (next state plus the number of
     *         architectural instructions the edge consumes, used by
     *         the tour generator's per-trace limit), or nullopt when
     *         this choice tuple is not a legal environment action in
     *         @p state (the paper's "constraining the abstract
     *         models").
     */
    virtual std::optional<Transition> next(const BitVec &state,
                                           const Choice &choice) const = 0;

    /**
     * Enumerate every legal transition out of @p state.
     *
     * The default implementation iterates the full cartesian product
     * of choice values (in ascending packed-code order) and filters
     * through next(). Models whose choice relevance is sparse (like
     * the PP control, where most inputs are examined only in a few
     * states) override this with a generator that visits only the
     * canonical tuples, and HDL models override it to step through
     * their lowered bytecode — constant-factor speedups for the
     * enumerator with identical results. An override works from and
     * into packed words and allocates nothing per transition.
     *
     * @param state Source state's packed words: ceil(stateBits() / 64)
     *              of them, such as a graph's stateWords(id).
     * @param sink Called once per legal transition with the packed
     *             choice code, the next state's words and the
     *             instructions the edge consumes.
     * @return true, or an error when the model cannot be stepped:
     *         the default loop refuses a next() whose state is not
     *         stateBits() wide, before reporting it.
     */
    virtual Result<bool> forEachTransition(std::span<const uint64_t> state,
                                           TransitionSink sink) const;

    /** @return total packed state width in bits. */
    size_t stateBits() const;

    /** @return a codec over this model's choice variables. */
    ChoiceCodec makeChoiceCodec() const;

    /** @return a "var=value, ..." rendering of @p state for debug. */
    std::string describeState(const BitVec &state) const;

    /** @return a "var=value, ..." rendering of @p choice for debug. */
    std::string describeChoice(const Choice &choice) const;
};

/**
 * Helper that assigns bit offsets to state variables and provides
 * named field access into packed states.
 */
class StateLayout
{
  public:
    StateLayout() = default;

    /** Build a layout over @p vars, in order. */
    explicit StateLayout(const std::vector<StateVarInfo> &vars);

    /** @return total width in bits. */
    size_t totalBits() const { return totalBits_; }

    /** @return index of the variable named @p name; panics if absent. */
    size_t indexOf(const std::string &name) const;

    /** @return field value of variable @p var in @p state. */
    uint64_t get(const BitVec &state, size_t var) const;

    /** Set field value of variable @p var in @p state. */
    void set(BitVec &state, size_t var, uint64_t value) const;

    /** @return field value of variable @p var in the packed words
     *  @p state (unchecked: as many words as totalBits() needs). */
    uint64_t
    get(std::span<const uint64_t> state, size_t var) const
    {
        return packedField(state, offsets_[var], widths_[var]);
    }

    /** Set field value of variable @p var in the packed words
     *  @p state (unchecked, like the reading form). */
    void
    set(std::span<uint64_t> state, size_t var, uint64_t value) const
    {
        setPackedField(state, offsets_[var], widths_[var], value);
    }

    /** @return field value by name (slower; for tests and reports). */
    uint64_t getByName(const BitVec &state, const std::string &name) const;

    /** @return number of variables. */
    size_t numVars() const { return offsets_.size(); }

    /** @return bit offset of variable @p var. */
    size_t offsetOf(size_t var) const { return offsets_[var]; }

    /** @return width of variable @p var. */
    size_t widthOf(size_t var) const { return widths_[var]; }

  private:
    std::vector<size_t> offsets_;
    std::vector<size_t> widths_;
    std::vector<std::string> names_;
    size_t totalBits_ = 0;
};

} // namespace archval::fsm

#endif // ARCHVAL_FSM_MODEL_HH
