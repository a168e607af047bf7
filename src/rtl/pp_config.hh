/**
 * @file
 * Configuration shared by the PP control logic, the cycle-accurate
 * RTL model, and the FSM model derived from them.
 */

#ifndef ARCHVAL_RTL_PP_CONFIG_HH
#define ARCHVAL_RTL_PP_CONFIG_HH

#include "pp/ref_sim.hh"
#include "rtl/mutations.hh"

namespace archval::rtl
{

/** Parameters of the Protocol Processor model. */
struct PpConfig
{
    /** Enabled control-logic mutations (single-control-logic bugs;
     *  shared by the FSM model and the RTL core, so the model is
     *  always derived from the same — possibly buggy — control). */
    MutationSet mutations;

    /** Words per cache line; each refill/writeback moves this many
     *  memory-reply beats. Larger lines deepen the refill counters
     *  and grow the control state space (bench_enum_scaling). At
     *  least 1 and at most maxLineWords. */
    unsigned lineWords = 4;

    /** Longest line the control's 8-bit refill and writeback
     *  counters hold; PpControl refuses a longer one. */
    static constexpr unsigned maxLineWords = 255;

    /** Model dual-issue fetch packets (a second, control-neutral ALU
     *  op may ride along; affects only instruction accounting). */
    bool dualIssue = true;

    /** Model squashing branches (the paper's announced extension;
     *  adds the Branch instruction class and the taken/not-taken
     *  abstract choice). */
    bool modelBranches = false;

    /** Track the abstract instruction class through the WB stage
     *  (the paper models the pipeline registers of every stage). */
    bool modelWbStage = false;

    /** Track fetch alignment within the I-cache line: dual issue
     *  cannot pair across a line boundary, and a taken branch lands
     *  at a nondeterministic target alignment. */
    bool modelAlignment = false;

    /** Data/instruction memory parameters for the RTL model. */
    pp::MachineConfig machine;

    /** Real D-cache geometry in the RTL model (2-way in the PP). */
    unsigned dcacheSets = 8;
    unsigned dcacheWays = 2;

    /** Real I-cache geometry in the RTL model (direct mapped). */
    unsigned icacheSets = 16;

    /** @return number of program-visible instruction classes. */
    unsigned
    numClasses() const
    {
        return modelBranches ? 6 : 5;
    }

    /** Preset tuned for fast unit tests (minimal counters). */
    static PpConfig smallPreset();

    /** Preset used for the paper-scale enumeration (Table 3.2). */
    static PpConfig fullPreset();
};

} // namespace archval::rtl

#endif // ARCHVAL_RTL_PP_CONFIG_HH
