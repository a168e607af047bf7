#include "pp_control.hh"

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::rtl
{

namespace
{

using pp::InstrClass;

bool
isMem(InstrClass cls)
{
    return cls == InstrClass::Load || cls == InstrClass::Store;
}

bool
isComm(InstrClass cls)
{
    return cls == InstrClass::Switch || cls == InstrClass::Send;
}

/** Map a FetchClass choice value (0-based) to an instruction class. */
InstrClass
classFromChoice(uint32_t value)
{
    switch (value) {
      case 0:
        return InstrClass::Alu;
      case 1:
        return InstrClass::Load;
      case 2:
        return InstrClass::Store;
      case 3:
        return InstrClass::Switch;
      case 4:
        return InstrClass::Send;
      case 5:
        return InstrClass::Branch;
      default:
        panic("bad fetch class choice");
    }
}

} // namespace

const char *
ppChoiceVarName(PpChoiceVar var)
{
    switch (var) {
      case PpChoiceVar::FetchClass:
        return "fetch_class";
      case PpChoiceVar::Dual:
        return "dual";
      case PpChoiceVar::IHit:
        return "ihit";
      case PpChoiceVar::DHit:
        return "dhit";
      case PpChoiceVar::Dirty:
        return "dirty";
      case PpChoiceVar::SameLine:
        return "same_line";
      case PpChoiceVar::InboxReady:
        return "inbox_ready";
      case PpChoiceVar::OutboxReady:
        return "outbox_ready";
      case PpChoiceVar::MemReply:
        return "mem_reply";
      case PpChoiceVar::BranchTaken:
        return "branch_taken";
      case PpChoiceVar::TargetAlign:
        return "target_align";
      default:
        return "?";
    }
}

std::string
PpControlState::toString() const
{
    static const char *irefill_names[] = {"Idle", "Req", "Fill", "Fixup"};
    static const char *drefill_names[] = {"Idle", "Req", "CritWait",
                                          "Fill"};
    static const char *spill_names[] = {"Idle", "Hold", "WbReq", "Wb"};
    static const char *port_names[] = {"Free", "BusyD", "BusyI",
                                       "BusyWb"};
    return formatString(
        "pipe[%s/%s/%s/%s] align=%u exDone=%d memDone=%d stPend=%d "
        "iref=%s/%u dref=%s/%u spill=%s/%u port=%s",
        pp::instrClassName(rdClass), pp::instrClassName(exClass),
        pp::instrClassName(memClass), pp::instrClassName(wbClass),
        fetchAlign, exDone, memDone, storePending,
        irefill_names[static_cast<int>(irefill)], irefillCount,
        drefill_names[static_cast<int>(drefill)], drefillCount,
        spill_names[static_cast<int>(spill)], spillCount,
        port_names[static_cast<int>(memPort)]);
}

PpControl::PpControl(const PpConfig &config) : config_(config)
{
    if (config.lineWords < 1 || config.lineWords > PpConfig::maxLineWords)
        fatal(formatString("lineWords must be in [1, %u]; got %u",
                           PpConfig::maxLineWords, config.lineWords));
}

template <typename Inputs>
PpControlState
PpControl::step(const PpControlState &state, Inputs &in,
                PpOutputs &out) const
{
    const unsigned line_words = config_.lineWords;
    auto mutated = [&](MutationId m) {
        return config_.mutations.test(static_cast<size_t>(m));
    };
    PpControlState next = state;
    out = PpOutputs{};

    // ------------------------------------------------------------------
    // EX stage: SWITCH and SEND handshake with the Inbox / Outbox.
    // ------------------------------------------------------------------
    if (!state.exDone) {
        if (state.exClass == InstrClass::Switch) {
            if (in.read(PpChoiceVar::InboxReady)) {
                next.exDone = true;
                out.inboxPop = true;
            }
        } else if (state.exClass == InstrClass::Send) {
            if (in.read(PpChoiceVar::OutboxReady)) {
                next.exDone = true;
                out.outboxPush = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // MEM stage: split-store conflict check and D-cache tag probe.
    // ------------------------------------------------------------------
    bool probed = false;
    if (isMem(state.memClass) && !state.memDone) {
        if (state.drefill != DRefill::Idle) {
            // Cache busy with a refill (possibly our own): wait. The
            // critical-word-first restart below will complete us if
            // the refill is ours.
        } else if (state.storePending &&
                   ((state.memClass == InstrClass::Store &&
                     !mutated(MutationId::ConflictIgnoresStore)) ||
                    (state.memClass == InstrClass::Load &&
                     !mutated(MutationId::ConflictDropsLoadCheck) &&
                     in.read(PpChoiceVar::SameLine)))) {
            // Cache conflict stall: the split store's data write must
            // drain before this access may proceed.
            out.conflict = true;
            out.storeCommit = true;
            next.storePending = false;
        } else {
            probed = true;
            out.probe = true;
            if (in.read(PpChoiceVar::DHit)) {
                next.memDone = true;
                if (state.memClass == InstrClass::Store) {
                    // Split store: tag probe now, data write later.
                    next.storePending = true;
                    out.storeProbe = true;
                } else {
                    out.loadHit = true;
                }
            } else if (in.read(PpChoiceVar::Dirty)) {
                if (state.spill != Spill::Idle &&
                    !mutated(MutationId::SpillOverrun)) {
                    // Fill-before-spill resource hazard: the spill
                    // buffer still holds the previous victim.
                    out.spillBlocked = true;
                } else {
                    next.spill = Spill::Hold;
                    out.spillCopy = true;
                    next.drefill = DRefill::Req;
                    out.dMissStart = true;
                }
            } else {
                next.drefill = DRefill::Req;
                out.dMissStart = true;
            }
        }
    }

    // Background completion of the split store's data write: happens
    // when nothing else used the cache data port this cycle.
    if (state.storePending && !out.conflict &&
        (!probed || mutated(MutationId::CommitIgnoresProbe)) &&
        state.drefill == DRefill::Idle) {
        next.storePending = false;
        out.storeCommit = true;
    }

    // ------------------------------------------------------------------
    // Memory-controller port arbitration and refill/writeback FSMs.
    // Priority: D-refill > I-refill > spill writeback (fill before
    // spill). Grants are based on start-of-cycle state, one per cycle.
    // ------------------------------------------------------------------
    const bool port_free = state.memPort == MemPort::Free;

    // D-cache refill FSM.
    if (state.drefill == DRefill::Req) {
        if (port_free) {
            next.memPort = MemPort::BusyD;
            next.drefill = DRefill::CritWait;
        }
    } else if (state.drefill == DRefill::CritWait) {
        if (in.read(PpChoiceVar::MemReply)) {
            // Critical word first: the stalled access completes now.
            out.critWord = true;
            next.memDone = true;
            if (state.memClass == InstrClass::Store)
                next.storePending = true;
            if (line_words > 1) {
                next.drefill = DRefill::Fill;
                next.drefillCount =
                    static_cast<uint8_t>(line_words - 1);
            } else {
                next.drefill = DRefill::Idle;
                next.memPort = MemPort::Free;
                out.dRefillDone = true;
            }
        }
    } else if (state.drefill == DRefill::Fill) {
        if (in.read(PpChoiceVar::MemReply)) {
            out.dFillBeat = true;
            --next.drefillCount;
            if (next.drefillCount == 0) {
                next.drefill = DRefill::Idle;
                next.memPort = MemPort::Free;
                out.dRefillDone = true;
            }
        }
    }

    // I-cache refill FSM (Fixup handled below, after stall derivation).
    if (state.irefill == IRefill::Req) {
        if (port_free &&
            (state.drefill != DRefill::Req ||
             mutated(MutationId::PortPriorityDropped))) {
            next.memPort = MemPort::BusyI;
            next.irefill = IRefill::Fill;
            next.irefillCount = static_cast<uint8_t>(line_words);
        }
    } else if (state.irefill == IRefill::Fill) {
        if (in.read(PpChoiceVar::MemReply)) {
            out.iFillBeat = true;
            --next.irefillCount;
            if (next.irefillCount == 0) {
                next.irefill = IRefill::Fixup;
                next.memPort = MemPort::Free;
                out.iRefillDone = true;
            }
        }
    }

    // Spill-buffer FSM.
    if (state.spill == Spill::Hold) {
        // Fill before spill: the displacing refill completes first.
        if (state.drefill == DRefill::Idle)
            next.spill = Spill::WbReq;
    } else if (state.spill == Spill::WbReq) {
        if (port_free && state.drefill != DRefill::Req &&
            state.irefill != IRefill::Req) {
            next.memPort = MemPort::BusyWb;
            next.spill = Spill::Wb;
            next.spillCount = static_cast<uint8_t>(line_words);
        }
    } else if (state.spill == Spill::Wb) {
        if (in.read(PpChoiceVar::MemReply)) {
            out.wbBeat = true;
            --next.spillCount;
            if (next.spillCount == 0) {
                next.spill = Spill::Idle;
                next.memPort = MemPort::Free;
                out.wbDone = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Stall machine.
    // ------------------------------------------------------------------
    out.dStall = isMem(state.memClass) && !next.memDone;
    out.extStall = isComm(state.exClass) && !next.exDone;
    out.frozen = out.dStall || out.extStall;

    // I-refill fix-up cycle: restores the instruction registers after
    // the I-stall. It is qualified on the pipe being un-frozen — the
    // mechanism whose *missing* qualification was PP bug #4.
    if (state.irefill == IRefill::Fixup &&
        (!out.frozen || mutated(MutationId::FixupUnqualified))) {
        next.irefill = IRefill::Idle;
        out.fixup = true;
    }

    // ------------------------------------------------------------------
    // Fetch and pipeline advance.
    // ------------------------------------------------------------------
    if (!out.frozen) {
        bool squash = false;
        if (config_.modelBranches &&
            state.exClass == InstrClass::Branch) {
            // Squashing branch resolves as it leaves EX; taken
            // branches squash the younger stages and suppress the
            // fetch (redirect cycle).
            if (in.read(PpChoiceVar::BranchTaken)) {
                squash = true;
                out.branchTaken = true;
            }
        }

        InstrClass fetched = InstrClass::None;
        if (!squash) {
            if (state.irefill == IRefill::Idle &&
                next.irefill == IRefill::Idle) {
                if (in.read(PpChoiceVar::IHit)) {
                    fetched = classFromChoice(
                        in.read(PpChoiceVar::FetchClass));
                    out.fetch = true;
                    out.fetchClass = fetched;
                    out.fetchCount = 1;
                    // Dual issue cannot pair across an I-cache line
                    // boundary; at the last slot of a line the
                    // second-slot choice is not even examined.
                    bool pair_ok =
                        !config_.modelAlignment ||
                        static_cast<unsigned>(state.fetchAlign) + 1 <
                            config_.lineWords;
                    if (config_.dualIssue && pair_ok)
                        out.fetchCount +=
                            in.read(PpChoiceVar::Dual);
                } else {
                    next.irefill = IRefill::Req;
                    out.iMissStart = true;
                }
            }
        }
        out.iStall = !out.fetch && !squash;

        out.advance = true;
        if (config_.modelWbStage)
            next.wbClass = state.memClass;
        next.memClass = state.exClass;
        next.memDone = !isMem(state.exClass);
        next.exClass = squash ? InstrClass::None : state.rdClass;
        next.exDone = !isComm(next.exClass);
        next.rdClass = fetched;

        if (config_.modelAlignment) {
            if (squash) {
                // The redirect lands at the target's alignment — an
                // abstract-PC choice.
                next.fetchAlign = static_cast<uint8_t>(
                    in.read(PpChoiceVar::TargetAlign));
            } else if (out.fetch) {
                next.fetchAlign = static_cast<uint8_t>(
                    (state.fetchAlign + out.fetchCount) %
                    config_.lineWords);
            }
        }
    } else {
        out.iStall = state.irefill != IRefill::Idle;
    }

    return next;
}

template PpControlState PpControl::step(const PpControlState &,
                                       ChoiceInputs &, PpOutputs &) const;
template PpControlState PpControl::step(const PpControlState &,
                                       SignalInputs &, PpOutputs &) const;
template PpControlState PpControl::step(const PpControlState &,
                                       PackedInputs &, PpOutputs &) const;
template PpControlState PpControl::step(const PpControlState &,
                                       ForkingInputs &, PpOutputs &) const;
template PpControlState PpControl::step(const PpControlState &,
                                       TrackingInputs &,
                                       PpOutputs &) const;

} // namespace archval::rtl
