/**
 * @file
 * Built-in corpus of annotated-Verilog controller designs.
 *
 * One shared list of realistic designs used by the differential
 * compile tests, the step-throughput benchmarks, and anything else
 * that wants "every HDL design" without re-embedding source strings.
 * The corpus spans the behaviours the bytecode step must handle:
 * small protocol FSMs, a wide-frontier arbiter (the largest design,
 * used for throughput claims), and a barrel rotator whose shift
 * amounts are data-dependent.
 */

#ifndef ARCHVAL_HDL_CORPUS_HH
#define ARCHVAL_HDL_CORPUS_HH

#include <vector>

#include "hdl/translate.hh"

namespace archval::hdl
{

/** One corpus entry: a named design plus its source text. */
struct CorpusDesign
{
    const char *name;   ///< corpus key (unique)
    const char *top;    ///< top module for elaboration
    const char *source; ///< annotated-Verilog text
    bool largest;       ///< the benchmark "largest HDL design"
};

/** All built-in designs. Stable order; exactly one has `largest`. */
const std::vector<CorpusDesign> &designCorpus();

/** The designated largest design (widest frontiers, most logic). */
const CorpusDesign &largestCorpusDesign();

/** Parse + elaborate + translate one corpus entry. */
Result<TranslateResult> translateCorpus(const CorpusDesign &design);

} // namespace archval::hdl

#endif // ARCHVAL_HDL_CORPUS_HH
