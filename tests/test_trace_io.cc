/**
 * @file
 * Tests for trace-file serialization: round trips, error handling,
 * and replaying a reloaded trace set through the player.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"
#include "pp/isa.hh"
#include "support/strings.hh"
#include "vecgen/trace_io.hh"

namespace archval::vecgen
{
namespace
{

class TraceIoFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new rtl::PpConfig(rtl::PpConfig::smallPreset());
        model_ = new rtl::PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        graph::TourOptions options;
        options.maxInstructionsPerTrace = 500;
        graph::TourGenerator tours(*graph_, options);
        auto tour_traces = tours.run();
        VectorGenerator generator(*model_, 3);
        traces_ = new std::vector<TestTrace>(
            generator.generateAll(*graph_, tour_traces));
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        delete graph_;
        delete model_;
        delete config_;
        traces_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    static rtl::PpConfig *config_;
    static rtl::PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static std::vector<TestTrace> *traces_;
};

rtl::PpConfig *TraceIoFixture::config_ = nullptr;
rtl::PpFsmModel *TraceIoFixture::model_ = nullptr;
graph::StateGraph *TraceIoFixture::graph_ = nullptr;
std::vector<TestTrace> *TraceIoFixture::traces_ = nullptr;

bool
tracesEqual(const TestTrace &a, const TestTrace &b)
{
    return a.traceIndex == b.traceIndex &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           a.fetchStream == b.fetchStream &&
           a.retiredStream == b.retiredStream && a.inbox == b.inbox;
}

TEST_F(TraceIoFixture, SerializeRoundTrip)
{
    ASSERT_FALSE(traces_->empty());
    for (size_t i = 0; i < std::min<size_t>(traces_->size(), 5); ++i) {
        std::string text = serializeTrace((*traces_)[i]);
        auto parsed = deserializeTrace(text);
        ASSERT_TRUE(parsed.ok()) << parsed.errorMessage();
        EXPECT_TRUE(tracesEqual((*traces_)[i], parsed.value()))
            << "trace " << i;
    }
}

TEST_F(TraceIoFixture, FileRoundTrip)
{
    std::string path = std::filesystem::temp_directory_path() /
                       "archval_trace_test.avt";
    auto write = writeTraceFile((*traces_)[0], path);
    ASSERT_TRUE(write.ok()) << write.errorMessage();
    auto read = readTraceFile(path);
    ASSERT_TRUE(read.ok()) << read.errorMessage();
    EXPECT_TRUE(tracesEqual((*traces_)[0], read.value()));
    std::remove(path.c_str());
}

TEST_F(TraceIoFixture, TraceSetRoundTripAndReplay)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "archval_trace_set_test";
    std::filesystem::remove_all(dir);

    std::vector<TestTrace> subset(
        traces_->begin(),
        traces_->begin() + std::min<size_t>(traces_->size(), 8));
    auto written = writeTraceSet(subset, dir);
    ASSERT_TRUE(written.ok()) << written.errorMessage();
    EXPECT_EQ(written.value(), subset.size());

    auto reloaded = readTraceSet(dir);
    ASSERT_TRUE(reloaded.ok()) << reloaded.errorMessage();
    ASSERT_EQ(reloaded.value().size(), subset.size());

    // Replaying a reloaded trace must behave identically: clean on
    // the healthy design.
    harness::VectorPlayer player(*config_);
    for (const auto &trace : reloaded.value()) {
        auto result = player.play(trace);
        EXPECT_FALSE(result.diverged) << result.diff;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(TraceIoFixture, FileNameConvention)
{
    EXPECT_EQ(traceFileName(0), "trace_000000.avt");
    EXPECT_EQ(traceFileName(42), "trace_000042.avt");
}

TEST(TraceIo, RejectsBadMagic)
{
    EXPECT_FALSE(deserializeTrace("not a trace\n").ok());
}

TEST(TraceIo, RejectsTruncatedInput)
{
    TestTrace trace;
    trace.cycles.push_back(rtl::PackedSignals{});
    trace.fetchStream.push_back(0x1234);
    trace.retiredStream.push_back(0x1234);
    std::string text = serializeTrace(trace);
    for (size_t cut : {text.size() / 4, text.size() / 2,
                       text.size() - 5}) {
        EXPECT_FALSE(deserializeTrace(text.substr(0, cut)).ok())
            << "cut at " << cut;
    }
}

/** Serialized one-cycle, one-fetch-word trace that the damage tests
 *  below edit. */
std::string
oneCycleText()
{
    TestTrace trace;
    trace.cycles.push_back(rtl::PackedSignals{});
    trace.fetchStream.push_back(0x1234);
    return serializeTrace(trace);
}

/** @return @p text with its first @p from replaced by @p to. */
std::string
damaged(std::string text, const std::string &from, const std::string &to)
{
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

/** @return deserializeTrace()'s error for @p text, "" when it parses.
 *  An exception escaping the parser fails the calling test. */
std::string
parseError(const std::string &text)
{
    auto parsed = deserializeTrace(text);
    return parsed.ok() ? "" : parsed.errorMessage();
}

TEST(TraceIo, OneCycleTextParses)
{
    EXPECT_EQ(parseError(oneCycleText()), "");
}

TEST(TraceIo, HugeCycleCountIsAnError)
{
    EXPECT_NE(parseError(damaged(oneCycleText(), "cycles 1 11",
                                 "cycles 1000000000000 11")),
              "");
}

TEST(TraceIo, MaximumCycleCountIsAnError)
{
    EXPECT_NE(parseError(damaged(oneCycleText(), "cycles 1 11",
                                 "cycles 18446744073709551615 11")),
              "");
}

TEST(TraceIo, FetchClassTooWideIsAnError)
{
    EXPECT_NE(parseError(damaged(oneCycleText(), "C 0 ", "C 99 ")), "");
}

TEST(TraceIo, FetchClassNamingNoClassIsAnError)
{
    // Classes 6 and 7 fit the packed field but name no instruction
    // class; replaying one would stop the core.
    for (const char *value : {"C 6 ", "C 7 "}) {
        const std::string error =
            parseError(damaged(oneCycleText(), "C 0 ", value));
        EXPECT_NE(error.find("cycle line 0"), std::string::npos)
            << value << ": " << error;
    }
}

TEST(TraceIo, AlignmentTooWideIsAnError)
{
    EXPECT_NE(parseError(damaged(oneCycleText(), " 0\nfetch",
                                 " 4000000000\nfetch")),
              "");
}

TEST(TraceIo, NonHexWordIsAnError)
{
    EXPECT_NE(parseError(damaged(oneCycleText(), "W 00001234", "W zz")),
              "");
}

// Every packed word renders as the decimal row it packs. The 49,152
// words whose fetch class names a class parse back to themselves;
// each of the other 16,384 is an error.
TEST(TraceIo, EveryPackedWordRoundTrips)
{
    const auto fetch_class = [](rtl::PackedSignals p) {
        return rtl::unpackTable()[p][static_cast<size_t>(
            rtl::PpChoiceVar::FetchClass)];
    };
    TestTrace trace;
    for (uint32_t p = 0; p <= UINT16_MAX; ++p)
        trace.cycles.push_back(static_cast<rtl::PackedSignals>(p));
    const std::string text = serializeTrace(trace);

    std::string expected;
    for (rtl::PackedSignals p : trace.cycles) {
        expected += "C";
        for (uint32_t value : rtl::unpackTable()[p])
            expected += formatString(" %u", value);
        expected += "\n";
    }
    EXPECT_NE(text.find("cycles 65536 11\n" + expected + "fetch 0\n"),
              std::string::npos);

    TestTrace named;
    size_t unnamed = 0;
    for (rtl::PackedSignals p : trace.cycles) {
        if (fetch_class(p) < pp::numProgramClasses) {
            named.cycles.push_back(p);
            continue;
        }
        ++unnamed;
        TestTrace one;
        one.cycles.push_back(p);
        EXPECT_FALSE(deserializeTrace(serializeTrace(one)).ok()) << p;
    }
    EXPECT_EQ(named.cycles.size(), 49'152u);
    EXPECT_EQ(unnamed, 16'384u);

    auto parsed = deserializeTrace(serializeTrace(named));
    ASSERT_TRUE(parsed.ok()) << parsed.errorMessage();
    EXPECT_EQ(parsed.value().cycles, named.cycles);
}

TEST(TraceIo, ReadMissingFileFails)
{
    EXPECT_FALSE(readTraceFile("/nonexistent/path.avt").ok());
}

} // namespace
} // namespace archval::vecgen
