#include "bug5_scenario.hh"

#include "harness/vector_player.hh"
#include "pp/isa.hh"
#include "rtl/pp_core.hh"

namespace archval::harness
{

using rtl::PpChoiceVar;

namespace
{

void
set(rtl::ForcedSignals &signals, PpChoiceVar var, uint32_t value)
{
    signals[static_cast<size_t>(var)] = value;
}

} // namespace

Bug5Outcome
runBug5Scenario(const rtl::PpConfig &config, bool external_stall,
                bool bug_enabled)
{
    Bug5Outcome outcome;
    outcome.expectedValue = 0x1111;

    rtl::PpCore core(config, rtl::CoreMode::Vector);
    std::vector<uint32_t> stream = {
        pp::encodeLw(1, 0, 100), // the load that misses
        pp::encodeLw(2, 0, 200), // the following load (in the pipe)
        pp::encodeSend(3),       // source of the external stall
        pp::encodeNop(),
        pp::encodeNop(),
    };
    core.loadStream(stream);
    core.pokeDmem(100 / 4, outcome.expectedValue);
    core.pokeDmem(200 / 4, 0x2222);
    if (bug_enabled)
        core.setBug(rtl::BugId::Bug5MembusGlitch, true);

    auto cycle = [&](auto setup) {
        rtl::ForcedSignals signals{};
        setup(signals);
        core.forceSignals(rtl::packSignals(signals).value());
        core.step();
        outcome.waveform.push_back(core.waveLine());
    };

    // Fetch the three instructions.
    const uint32_t load_class =
        static_cast<uint32_t>(pp::InstrClass::Load) - 1;
    const uint32_t send_class =
        static_cast<uint32_t>(pp::InstrClass::Send) - 1;
    cycle([&](rtl::ForcedSignals &s) {
        set(s, PpChoiceVar::IHit, 1);
        set(s, PpChoiceVar::FetchClass, load_class);
    });
    cycle([&](rtl::ForcedSignals &s) {
        set(s, PpChoiceVar::IHit, 1);
        set(s, PpChoiceVar::FetchClass, load_class);
    });
    cycle([&](rtl::ForcedSignals &s) {
        set(s, PpChoiceVar::IHit, 1);
        set(s, PpChoiceVar::FetchClass, send_class);
    });

    // The first load probes and misses (dhit forced low), then the
    // refill requests and is granted the memory port.
    cycle([](rtl::ForcedSignals &) {});
    cycle([](rtl::ForcedSignals &) {});

    // Critical word arrives: the processor restarts immediately; the
    // glitch window opens because the second load sits in the pipe.
    cycle([&](rtl::ForcedSignals &s) {
        set(s, PpChoiceVar::MemReply, 1);
        set(s, PpChoiceVar::IHit, 1);
        set(s, PpChoiceVar::FetchClass, 0); // ALU (a NOP)
    });

    // Remaining fill beats. The SEND is now in EX: holding the
    // Outbox not-ready in the first post-restart cycle is the
    // "external stall at the right time" of Figure 2.3.
    for (unsigned beat = 0; beat + 1 < config.lineWords; ++beat) {
        bool stall_now = external_stall && beat == 0;
        cycle([&](rtl::ForcedSignals &s) {
            set(s, PpChoiceVar::MemReply, 1);
            set(s, PpChoiceVar::OutboxReady, stall_now ? 0 : 1);
        });
    }
    if (config.lineWords == 1 && external_stall) {
        cycle([&](rtl::ForcedSignals &s) {
            set(s, PpChoiceVar::OutboxReady, 0);
        });
    }

    // Release the stall; the second load probes and hits.
    cycle([&](rtl::ForcedSignals &s) {
        set(s, PpChoiceVar::OutboxReady, 1);
        set(s, PpChoiceVar::DHit, 1);
    });

    // Drain.
    const rtl::PackedSignals drain =
        rtl::packSignals(VectorPlayer::drainSignals()).value();
    for (unsigned i = 0; i < VectorPlayer::drainLength(config); ++i) {
        if (core.pipeEmpty())
            break;
        core.forceSignals(drain);
        core.step();
    }

    outcome.loadedValue = core.reg(1);
    outcome.corrupted = outcome.loadedValue != outcome.expectedValue;
    return outcome;
}

} // namespace archval::harness
