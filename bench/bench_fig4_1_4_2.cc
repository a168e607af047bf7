/**
 * @file
 * Figures 4.1 / 4.2 — What the method can and cannot catch.
 *
 * Figure 4.1: the implementation has *more* behaviours than the
 * specification (an extra transition into an erroneous state).
 * Enumerating the implementation FSM exercises the extra arc and the
 * comparison exposes it; enumerating the specification (protocol-
 * conformance style) never drives the offending input and misses it.
 *
 * Figure 4.2: the implementation has *fewer* behaviours (two inputs
 * erroneously merged onto one transition). With the paper's default
 * first-condition edge labelling only one of the two conditions is
 * ever exercised, so the bug can be missed; recording all unique
 * conditions (the fix proposed in Section 4) catches it.
 */

#include <cstdio>

#include "bench_util.hh"
#include "fsm/built_model.hh"
#include "graph/tour.hh"
#include "murphi/enumerator.hh"

using namespace archval;

namespace
{

/**
 * Walk @p tour over @p graph (enumerated from @p driver) feeding the
 * same input symbols to @p observer; @return number of cycles where
 * the two machines' state names disagree (unknown inputs self-loop).
 */
unsigned
lockstepMismatches(const graph::StateGraph &graph,
                   const graph::Tours &tours,
                   const fsm::ExplicitFsm &driver,
                   const fsm::ExplicitFsm &observer)
{
    unsigned mismatches = 0;
    size_t state_bits = 1;
    while ((size_t(1) << state_bits) < driver.numStates())
        ++state_bits;
    for (size_t t = 0; t < tours.size(); ++t) {
        size_t observer_state = 0; // reset
        for (graph::TraceCursor cursor = tours.cursor(graph, t);
             cursor.next();) {
            const auto &edge = graph.edge(cursor.edge());
            // Single choice variable: the code is the input index.
            size_t input = static_cast<size_t>(edge.choiceCode);
            const std::string &symbol = driver.inputs()[input];

            // The observer may not know this symbol; unknown inputs
            // are ignored (self-loop).
            size_t next = observer_state;
            for (size_t i = 0; i < observer.numInputs(); ++i) {
                if (observer.inputs()[i] == symbol) {
                    if (auto stepped =
                            observer.step(observer_state, i))
                        next = *stepped;
                    break;
                }
            }
            observer_state = next;

            const std::string &impl_state =
                driver.states()[graph.packedState(edge.dst)
                                    .getField(0, state_bits)];
            if (impl_state != observer.states()[observer_state])
                ++mismatches;
        }
    }
    return mismatches;
}

std::pair<graph::StateGraph, graph::Tours>
enumerateAndTour(const fsm::ExplicitFsm &fsm,
                 murphi::EdgeRecording recording)
{
    auto model = fsm.toModel();
    murphi::EnumOptions options;
    options.recording = recording;
    murphi::Enumerator enumerator(*model, options);
    auto graph = enumerator.runOrThrow();
    graph::TourGenerator tours(graph);
    auto traces = tours.run();
    return {std::move(graph), std::move(traces)};
}

} // namespace

int
main()
{
    bench::banner("Fig 4.1 / 4.2",
                  "Erroneous implementations: more / fewer "
                  "behaviours");

    // ------------------------------------------------------------------
    // Figure 4.1 — implementation with MORE behaviours.
    // ------------------------------------------------------------------
    fsm::ExplicitFsm spec41("spec41");
    spec41.addState("A");
    spec41.addState("B");
    spec41.addInput("a");
    spec41.addInput("b");
    spec41.addTransition("A", "a", "B");
    spec41.addTransition("B", "b", "A");

    fsm::ExplicitFsm impl41("impl41");
    impl41.addState("A");
    impl41.addState("B");
    impl41.addState("C"); // erroneous extra state
    impl41.addInput("a");
    impl41.addInput("b");
    impl41.addInput("c"); // input the spec does not model
    impl41.addTransition("A", "a", "B");
    impl41.addTransition("B", "b", "A");
    impl41.addTransition("B", "c", "C"); // the extra behaviour
    impl41.addTransition("C", "b", "A");

    auto [impl_graph, impl_tours] = enumerateAndTour(
        impl41, murphi::EdgeRecording::FirstCondition);
    unsigned impl_driven =
        lockstepMismatches(impl_graph, impl_tours, impl41, spec41);

    auto [spec_graph, spec_tours] = enumerateAndTour(
        spec41, murphi::EdgeRecording::FirstCondition);
    unsigned spec_driven =
        lockstepMismatches(spec_graph, spec_tours, spec41, impl41);

    std::printf("\nFigure 4.1 (impl adds B--c-->C):\n");
    std::printf("  tours from the IMPLEMENTATION graph: %u "
                "mismatch(es) -> bug %s\n",
                impl_driven, impl_driven ? "EXPOSED" : "missed");
    std::printf("  tours from the SPECIFICATION graph:  %u "
                "mismatch(es) -> bug %s\n",
                spec_driven, spec_driven ? "exposed" : "MISSED");
    std::printf("  (conformance testing enumerates the spec and "
                "misses implementation-only\n   behaviours; this "
                "method enumerates the implementation)\n");

    // ------------------------------------------------------------------
    // Figure 4.2 — implementation with FEWER behaviours.
    // ------------------------------------------------------------------
    fsm::ExplicitFsm spec42("spec42");
    spec42.addState("A");
    spec42.addState("B");
    spec42.addState("C");
    spec42.addInput("a");
    spec42.addInput("b");
    spec42.addInput("c");
    spec42.addTransition("A", "a", "B");
    spec42.addTransition("A", "c", "C"); // distinct behaviour on c
    spec42.addTransition("B", "b", "A");
    spec42.addTransition("C", "b", "A");

    fsm::ExplicitFsm impl42("impl42");
    impl42.addState("A");
    impl42.addState("B");
    impl42.addState("C"); // exists but erroneously unreachable
    impl42.addInput("a");
    impl42.addInput("b");
    impl42.addInput("c");
    impl42.addTransition("A", "a", "B");
    impl42.addTransition("A", "c", "B"); // merged with "a" (the bug)
    impl42.addTransition("B", "b", "A");
    impl42.addTransition("C", "b", "A");

    auto [first_graph, first_tours] = enumerateAndTour(
        impl42, murphi::EdgeRecording::FirstCondition);
    unsigned first_found =
        lockstepMismatches(first_graph, first_tours, impl42, spec42);

    auto [all_graph, all_tours] = enumerateAndTour(
        impl42, murphi::EdgeRecording::AllConditions);
    unsigned all_found =
        lockstepMismatches(all_graph, all_tours, impl42, spec42);

    std::printf("\nFigure 4.2 (impl merges A--c--> onto the A--a--> "
                "arc):\n");
    std::printf("  first-condition labelling: %u edge(s) from A, "
                "%u mismatch(es) -> bug %s\n",
                first_graph.outEdges(0).size(), first_found,
                first_found ? "exposed" : "MISSED");
    std::printf("  all-conditions labelling:  %u edge(s) from A, "
                "%u mismatch(es) -> bug %s\n",
                all_graph.outEdges(0).size(), all_found,
                all_found ? "EXPOSED" : "missed");
    std::printf("  (Section 4's proposed fix: capture all unique "
                "transition conditions,\n   not just the first one "
                "per state pair)\n");

    bool shape_ok = impl_driven > 0 && spec_driven == 0 &&
                    first_found == 0 && all_found > 0;
    std::printf("\nshape check: %s\n", shape_ok ? "OK" : "FAILED");
    return shape_ok ? 0 : 1;
}
