#include "baselines.hh"

#include <algorithm>

#include "pp/assembler.hh"
#include "pp/ref_sim.hh"
#include "rtl/pp_core.hh"
#include "support/status.hh"
#include "support/strings.hh"

namespace archval::harness
{

RandomWalker::RandomWalker(const graph::StateGraph &graph, uint64_t seed)
    : graph_(graph), rng_(seed)
{
}

graph::Trace
RandomWalker::walk(uint64_t max_instructions, uint64_t max_edges)
{
    graph::Trace trace;
    graph::StateId state = graph_.resetState();
    while (trace.instructions < max_instructions &&
           trace.edges.size() < max_edges) {
        const graph::EdgeRange out = graph_.outEdges(state);
        if (out.empty())
            break;
        graph::EdgeId e = out[rng_.index(out.size())];
        trace.edges.push_back(e);
        trace.instructions += graph_.edge(e).instrCount;
        state = graph_.edge(e).dst;
    }
    return trace;
}

BiasedWalker::BiasedWalker(const rtl::PpFsmModel &model,
                           const graph::StateGraph &graph,
                           uint64_t seed, const EventBias &bias)
    : model_(model), graph_(graph), rng_(seed), bias_(bias)
{
    if (graph.stateBits() != model.stateBits()) {
        fatal(formatString("BiasedWalker needs %zu-bit states; the "
                           "graph holds %zu-bit states",
                           model.stateBits(), graph.stateBits()));
    }
}

graph::Trace
BiasedWalker::walk(uint64_t max_instructions, uint64_t max_edges)
{
    using rtl::PpChoiceVar;
    auto bernoulli = [&](double p) -> uint32_t {
        return rng_.below(1'000'000) < uint64_t(p * 1'000'000) ? 1
                                                               : 0;
    };

    const auto &vars = model_.choiceVars();
    const unsigned num_classes = vars[0].cardinality;
    const uint32_t align_card =
        vars[static_cast<size_t>(PpChoiceVar::TargetAlign)]
            .cardinality;

    graph::Trace trace;
    graph::StateId at = graph_.resetState();

    while (trace.instructions < max_instructions &&
           trace.edges.size() < max_edges) {
        // Sample every event at its natural rate; the model then
        // zeroes whatever the control did not examine this cycle.
        std::array<uint32_t, rtl::numPpChoiceVars> values{};
        uint32_t cls;
        if (bernoulli(bias_.aluShare)) {
            cls = 0; // ALU
        } else {
            cls = 1 + static_cast<uint32_t>(
                          rng_.index(num_classes - 1));
        }
        values[static_cast<size_t>(PpChoiceVar::FetchClass)] = cls;
        values[static_cast<size_t>(PpChoiceVar::Dual)] =
            bernoulli(bias_.dual);
        values[static_cast<size_t>(PpChoiceVar::IHit)] =
            bernoulli(bias_.iHit);
        values[static_cast<size_t>(PpChoiceVar::DHit)] =
            bernoulli(bias_.dHit);
        values[static_cast<size_t>(PpChoiceVar::Dirty)] =
            bernoulli(bias_.dirty);
        values[static_cast<size_t>(PpChoiceVar::SameLine)] =
            bernoulli(bias_.sameLine);
        values[static_cast<size_t>(PpChoiceVar::InboxReady)] =
            bernoulli(bias_.inboxReady);
        values[static_cast<size_t>(PpChoiceVar::OutboxReady)] =
            bernoulli(bias_.outboxReady);
        values[static_cast<size_t>(PpChoiceVar::MemReply)] =
            bernoulli(bias_.memReply);
        values[static_cast<size_t>(PpChoiceVar::BranchTaken)] =
            bernoulli(bias_.branchTaken);
        values[static_cast<size_t>(PpChoiceVar::TargetAlign)] =
            static_cast<uint32_t>(rng_.index(align_card));

        const std::span<const uint64_t> from = graph_.stateWords(at);
        const fsm::Choice choice = model_.canonicalize(from, values);
        const auto transition =
            model_.next(BitVec(graph_.stateBits(), from), choice);
        if (!transition)
            panic("biased walker produced an illegal tuple");

        // Account the first recorded arc into the next state
        // (FirstCondition graphs record one edge per destination):
        // the graph is complete, so one of the out-edges enters it.
        const std::span<const uint64_t> next = transition->next.words();
        graph::EdgeId matched = graph::invalidState;
        for (graph::EdgeId e : graph_.outEdges(at)) {
            if (std::ranges::equal(graph_.stateWords(graph_.edge(e).dst),
                                   next)) {
                matched = e;
                break;
            }
        }
        if (matched == graph::invalidState)
            panic("biased walker left the recorded arcs");
        trace.edges.push_back(matched);
        // Account the recorded arc's own instruction count so the
        // trace replays consistently through the vector generator.
        trace.instructions += graph_.edge(matched).instrCount;
        at = graph_.edge(matched).dst;
    }
    return trace;
}

const std::vector<DirectedTest> &
directedSuite()
{
    static const std::vector<DirectedTest> suite = {
        {"alu_smoke", "basic ALU operations",
         R"(
            addi r1, r0, 100
            addi r2, r0, 23
            add r3, r1, r2
            sub r4, r1, r2
            and r5, r1, r2
            or r6, r1, r2
            xor r7, r1, r2
            slt r8, r2, r1
            sll r9, r1, 3
            srl r10, r1, 2
            halt
         )",
         {}, false},
        {"load_store_basic", "store then load, same and other lines",
         R"(
            addi r1, r0, 0x11
            addi r2, r0, 0x22
            sw r1, 64(r0)
            sw r2, 512(r0)
            lw r3, 64(r0)
            lw r4, 512(r0)
            add r5, r3, r4
            halt
         )",
         {}, false},
        {"store_load_conflict", "split-store conflict: load follows "
                                "store to the same line immediately",
         R"(
            addi r1, r0, 0xaa
            sw r1, 128(r0)
            lw r2, 128(r0)
            addi r1, r0, 0xbb
            sw r1, 128(r0)
            sw r1, 132(r0)
            lw r3, 132(r0)
            halt
         )",
         {}, false},
        {"cache_thrash", "walk many lines to force misses, "
                         "evictions and writebacks",
         R"(
            addi r1, r0, 1
            sw r1, 0(r0)
            sw r1, 32(r0)
            sw r1, 64(r0)
            sw r1, 96(r0)
            sw r1, 128(r0)
            sw r1, 160(r0)
            sw r1, 192(r0)
            sw r1, 224(r0)
            sw r1, 256(r0)
            sw r1, 288(r0)
            sw r1, 320(r0)
            sw r1, 352(r0)
            lw r2, 0(r0)
            lw r3, 32(r0)
            lw r4, 64(r0)
            lw r5, 96(r0)
            lw r6, 128(r0)
            lw r7, 160(r0)
            lw r8, 192(r0)
            lw r9, 224(r0)
            halt
         )",
         {}, false},
        {"switch_send_burst", "inbox/outbox traffic with stalls",
         R"(
            switch r1
            switch r2
            add r3, r1, r2
            send r3
            send r1
            send r2
            send r3
            send r1
            send r2
            switch r4
            send r4
            halt
         )",
         {3, 4, 5}, false},
        {"mixed_mem_comm", "interleaved memory and communication",
         R"(
            switch r1
            sw r1, 64(r0)
            lw r2, 64(r0)
            send r2
            switch r3
            sw r3, 320(r0)
            lw r4, 320(r0)
            send r4
            halt
         )",
         {0x1234, 0x5678}, false},
        {"branch_loop", "loop with scheduled branch sources",
         R"(
            addi r1, r0, 6
            addi r2, r0, 0
         loop:
            add r2, r2, r1
            addi r1, r1, -1
            nop
            nop
            bne r1, r0, loop
            sw r2, 64(r0)
            halt
         )",
         {}, true},
        {"store_miss_dirty", "store misses onto dirty victims",
         R"(
            addi r1, r0, 7
            sw r1, 0(r0)
            sw r1, 128(r0)
            sw r1, 256(r0)
            sw r1, 384(r0)
            lw r2, 0(r0)
            lw r3, 128(r0)
            halt
         )",
         {}, false},
    };
    return suite;
}

std::vector<DirectedResult>
runDirectedSuite(const rtl::PpConfig &config, const rtl::BugSet &bugs)
{
    std::vector<DirectedResult> results;
    for (const DirectedTest &test : directedSuite()) {
        DirectedResult result;
        result.name = test.name;
        if (test.needsBranches && !config.modelBranches) {
            results.push_back(result);
            continue;
        }

        auto assembled = pp::assemble(test.source);
        if (!assembled.ok())
            fatal("directed test '" + test.name +
                  "' does not assemble: " + assembled.errorMessage());
        const auto &program = assembled.value();

        pp::RefSim ref(config.machine);
        ref.loadProgram(program);
        ref.setInbox(test.inbox);
        ref.run();

        rtl::PpCore core(config, rtl::CoreMode::Program);
        core.loadProgram(program);
        core.setInbox(test.inbox);
        for (size_t b = 0; b < rtl::numBugs; ++b) {
            if (bugs.test(b))
                core.setBug(static_cast<rtl::BugId>(b), true);
        }
        core.run(500'000);

        result.ran = true;
        result.cycles = core.cycles();
        result.instructions = core.instructionsRetired();
        result.diff = ref.archState().diff(core.archState());
        result.diverged = !result.diff.empty();
        results.push_back(result);
    }
    return results;
}

} // namespace archval::harness
