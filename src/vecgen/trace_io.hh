/**
 * @file
 * Test-trace file I/O.
 *
 * The paper's generator writes each tour component to an output file
 * that is later compiled with the simulation model (Figure 3.3's
 * "open output file to write tour"). This module provides the same
 * workflow: a plain-text format carrying the forced-signal schedule,
 * the fetch and retired instruction streams, and the inbox preload,
 * so traces can be generated once and replayed in separate runs. A
 * TestTrace holds the retired stream as the positions of the fetch
 * words it leaves out; the file spells it out word by word.
 */

#ifndef ARCHVAL_VECGEN_TRACE_IO_HH
#define ARCHVAL_VECGEN_TRACE_IO_HH

#include <string>
#include <vector>

#include "support/status.hh"
#include "vecgen/vector_gen.hh"

namespace archval::vecgen
{

/** Serialize @p trace into the textual trace format. */
std::string serializeTrace(const TestTrace &trace);

/** Parse a trace from text. The squashed positions are recovered by
 *  matching each retired word to the earliest fetch word it can be.
 *  @return the trace, or an error (among others when the retired
 *  section is not the fetch section with some words removed). */
Result<TestTrace> deserializeTrace(const std::string &text);

/** Write @p trace to @p path. @return true or an error. */
Result<bool> writeTraceFile(const TestTrace &trace,
                            const std::string &path);

/** Read a trace from @p path. A parse error names @p path. */
Result<TestTrace> readTraceFile(const std::string &path);

/** @return the conventional file name for trace @p index,
 *  e.g. "trace_000042.avt". */
std::string traceFileName(size_t index);

/**
 * Write every trace into @p directory (created if absent).
 * @return the number written, or an error.
 */
Result<size_t> writeTraceSet(const std::vector<TestTrace> &traces,
                             const std::string &directory);

/**
 * Read all trace files from @p directory, ordered by trace index.
 */
Result<std::vector<TestTrace>> readTraceSet(
    const std::string &directory);

} // namespace archval::vecgen

#endif // ARCHVAL_VECGEN_TRACE_IO_HH
