/**
 * @file
 * Tests for tools/trace_summarize: the trace-JSON parser (callbacks
 * over obs::JsonReader), the track invariants `--validate` enforces,
 * the rollup shape, and a writer/checker round trip —
 * obs::Tracer::writeChromeJson output must parse and validate clean,
 * since CI runs the validator against every merged BENCH_trace.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "summarize_core.h"

namespace {

using ebs::tracetool::Event;
using ebs::tracetool::parseTraceFile;
using ebs::tracetool::parseTraceText;
using ebs::tracetool::summarize;
using ebs::tracetool::validate;

std::string
wrap(const std::string &events)
{
    return "{ \"traceEvents\": [\n" + events + "\n] }\n";
}

TEST(TraceParse, EventFieldsSurvive)
{
    const auto result = parseTraceText(wrap(
        R"({"ph":"X","pid":3,"tid":7,"ts":1500.0,"dur":250.5,)"
        R"("cat":"suite","name":"fig2_latency",)"
        R"("args":{"exit_code":0,"label":"ok","max_rss_kb":4096}})"));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.events.size(), 1u);
    const Event &event = result.events[0];
    EXPECT_EQ(event.ph, 'X');
    EXPECT_EQ(event.pid, 3);
    EXPECT_EQ(event.tid, 7);
    EXPECT_TRUE(event.has_ts);
    EXPECT_DOUBLE_EQ(event.ts_us, 1500.0);
    EXPECT_TRUE(event.has_dur);
    EXPECT_DOUBLE_EQ(event.dur_us, 250.5);
    EXPECT_EQ(event.cat, "suite");
    EXPECT_EQ(event.name, "fig2_latency");
    ASSERT_EQ(event.num_args.size(), 2u);
    EXPECT_EQ(event.num_args[0].first, "exit_code");
    EXPECT_EQ(event.num_args[1].second, 4096.0);
    ASSERT_EQ(event.str_args.size(), 1u);
    EXPECT_EQ(event.str_args[0].second, "ok");
}

TEST(TraceParse, RejectsMalformedInput)
{
    EXPECT_FALSE(parseTraceText("").ok);
    EXPECT_FALSE(parseTraceText("[]").ok); // array form unsupported
    EXPECT_FALSE(parseTraceText("{ \"notTraceEvents\": [] }").ok);
    EXPECT_FALSE(parseTraceText(wrap(R"({"ph":"i" )")).ok); // truncated
    EXPECT_FALSE(parseTraceFile("no/such/trace.json").ok);
    for (const auto &bad :
         {std::string("{ \"traceEvents\": [ 7 ] }"),
          std::string("{ \"traceEvents\": { } }"),
          // The string rules of the one JSON reader: a truncated \u,
          // an unpaired surrogate, an unknown escape, a raw control byte.
          wrap(R"({"ph":"i","name":"x\u12"})"),
          wrap(R"({"ph":"i","name":"x\ud800"})"),
          wrap(R"({"ph":"i","name":"x\udc00"})"),
          wrap(R"({"ph":"i","name":"x\q"})"),
          wrap("{\"ph\":\"i\",\"name\":\"a\tb\"}"),
          // Numbers outside JSON's grammar, which strtod would take.
          wrap(R"({"ph":"i","ts":+1})"), wrap(R"({"ph":"i","ts":.5})"),
          wrap(R"({"ph":"i","ts":1.})"), wrap(R"({"ph":"i","ts":0x10})"),
          wrap(R"({"ph":"i","ts":-inf})"),
          wrap(R"({"ph":"i","args":{"v":nan}})")}) {
        const auto result = parseTraceText(bad);
        EXPECT_FALSE(result.ok) << bad;
        EXPECT_FALSE(result.error.empty()) << bad;
    }
}

TEST(TraceParse, UnknownFieldsAndEscapesAreTolerated)
{
    const auto result = parseTraceText(
        wrap(R"({"ph":"i","pid":1,"tid":0,"ts":1,"name":"qA \"x\"",)"
             R"("extra":{"nested":[1,{"deep":true}]},"s":"g"})"));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.events.size(), 1u);
    EXPECT_EQ(result.events[0].name, "qA \"x\"");

    // Escapes outside ASCII decode to UTF-8, surrogate pairs combined;
    // numbers take JSON's fraction and exponent forms.
    const auto wide = parseTraceText(
        wrap(R"({"ph":"i","name":"caf\u00e9 \ud83d\ude00",)"
             R"("ts":-1.5e-3,"dur":2E+2})"));
    ASSERT_TRUE(wide.ok) << wide.error;
    ASSERT_EQ(wide.events.size(), 1u);
    EXPECT_EQ(wide.events[0].name, "caf\xC3\xA9 \xF0\x9F\x98\x80");
    EXPECT_DOUBLE_EQ(wide.events[0].ts_us, -1.5e-3);
    EXPECT_DOUBLE_EQ(wide.events[0].dur_us, 200.0);
}

TEST(TraceValidate, CleanNestedTracksPass)
{
    const auto result = parseTraceText(wrap(
        R"({"ph":"M","pid":1,"tid":0,"ts":0,"name":"process_name","args":{"name":"sim"}},)"
        "\n"
        R"({"ph":"B","pid":1,"tid":0,"ts":0,"cat":"episode","name":"e"},)"
        "\n"
        R"({"ph":"B","pid":1,"tid":0,"ts":10,"cat":"phase","name":"plan"},)"
        "\n"
        R"({"ph":"E","pid":1,"tid":0,"ts":20},)"
        "\n"
        R"({"ph":"X","pid":2,"tid":1,"ts":5,"dur":30,"cat":"sched","name":"task"},)"
        "\n"
        R"({"ph":"E","pid":1,"tid":0,"ts":40})"));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(validate(result.events).empty());
}

TEST(TraceValidate, FlagsEachInvariantViolation)
{
    struct Case
    {
        const char *label;
        const char *events;
    };
    const Case cases[] = {
        {"ts goes backwards within a track",
         R"({"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},)"
         "\n"
         R"({"ph":"i","pid":1,"tid":0,"ts":5,"name":"b"})"},
        {"E without an open B",
         R"({"ph":"E","pid":1,"tid":0,"ts":5})"},
        {"B left unclosed at end of track",
         R"({"ph":"B","pid":1,"tid":0,"ts":5,"name":"open"})"},
        {"X with negative dur",
         R"({"ph":"X","pid":1,"tid":0,"ts":5,"dur":-1,"name":"x"})"},
        {"span event missing its ts",
         R"({"ph":"B","pid":1,"tid":0,"name":"nots"},)"
         "\n"
         R"({"ph":"E","pid":1,"tid":0,"ts":1})"},
    };
    for (const auto &c : cases) {
        const auto result = parseTraceText(wrap(c.events));
        ASSERT_TRUE(result.ok) << c.label << ": " << result.error;
        EXPECT_FALSE(validate(result.events).empty()) << c.label;
    }
}

TEST(TraceValidate, TracksAreIndependent)
{
    // Interleaved timestamps across different (pid, tid) tracks are
    // expected (run_all merges per-suite files); only intra-track order
    // is constrained.
    const auto result = parseTraceText(
        wrap(R"({"ph":"i","pid":1,"tid":0,"ts":100,"name":"a"},)"
             "\n"
             R"({"ph":"i","pid":2,"tid":0,"ts":1,"name":"b"},)"
             "\n"
             R"({"ph":"i","pid":1,"tid":1,"ts":2,"name":"c"})"));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(validate(result.events).empty());
}

TEST(TraceSummarize, RollsUpPathsAndInstantArgs)
{
    const auto result = parseTraceText(wrap(
        R"({"ph":"M","pid":1,"tid":0,"ts":0,"name":"process_name","args":{"name":"sim"}},)"
        "\n"
        R"({"ph":"B","pid":1,"tid":0,"ts":0,"cat":"episode","name":"b1.e0"},)"
        "\n"
        R"({"ph":"B","pid":1,"tid":0,"ts":0,"cat":"phase","name":"plan"},)"
        "\n"
        R"({"ph":"E","pid":1,"tid":0,"ts":2000000},)"
        "\n"
        R"({"ph":"E","pid":1,"tid":0,"ts":3000000},)"
        "\n"
        R"({"ph":"B","pid":1,"tid":0,"ts":3000000,"cat":"episode","name":"b1.e1"},)"
        "\n"
        R"({"ph":"B","pid":1,"tid":0,"ts":3000000,"cat":"phase","name":"plan"},)"
        "\n"
        R"({"ph":"E","pid":1,"tid":0,"ts":4000000},)"
        "\n"
        R"({"ph":"E","pid":1,"tid":0,"ts":5000000},)"
        "\n"
        R"({"ph":"i","pid":1,"tid":0,"ts":1,"cat":"llm","name":"batch a100",)"
        R"("args":{"requests":3}},)"
        "\n"
        R"({"ph":"i","pid":1,"tid":0,"ts":2,"cat":"llm","name":"batch a100",)"
        R"("args":{"requests":5}})"));
    ASSERT_TRUE(result.ok) << result.error;
    const std::string out = summarize(result.events);
    // Episode labels collapse to the category, so the two episodes'
    // plan phases aggregate under one path...
    EXPECT_NE(out.find("episode;plan"), std::string::npos) << out;
    EXPECT_EQ(out.find("b1.e0"), std::string::npos) << out;
    // ...the process_name metadata labels the section...
    EXPECT_NE(out.find("sim"), std::string::npos) << out;
    // ...and instant args sum (3 + 5 requests across the two batches).
    EXPECT_NE(out.find("batch a100"), std::string::npos) << out;
    EXPECT_NE(out.find("8"), std::string::npos) << out;
}

TEST(TraceSummarize, SchedulerTasksRollUpAcrossSeeds)
{
    const auto result = parseTraceText(wrap(
        R"({"ph":"X","pid":3,"tid":0,"ts":0,"dur":1000000,"cat":"sched","name":"COMBO#8919"},)"
        "\n"
        R"({"ph":"X","pid":3,"tid":0,"ts":1000000,"dur":2000000,"cat":"sched","name":"COMBO#17"},)"
        "\n"
        R"({"ph":"X","pid":3,"tid":1,"ts":0,"dur":500000,"cat":"sched","name":"CoELA#17"},)"
        "\n"
        R"({"ph":"X","pid":3,"tid":1,"ts":500000,"dur":500000,"cat":"sched","name":"tag#v2"})"));
    ASSERT_TRUE(result.ok) << result.error;
    const std::string out = summarize(result.events);
    // Both COMBO episodes land in one row with their durations summed.
    EXPECT_NE(out.find("2x  total_s=3.000000  COMBO\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("1x  total_s=0.500000  CoELA\n"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("#8919"), std::string::npos) << out;
    // Only an all-digit suffix is a seed.
    EXPECT_NE(out.find("tag#v2"), std::string::npos) << out;
}

TEST(TraceRoundTrip, TracerJsonParsesAndValidatesClean)
{
    ebs::obs::setTraceEnabled(true);
    ebs::obs::Tracer &tracer = ebs::obs::Tracer::shared();
    tracer.clear();

    ebs::obs::EpisodeTraceLog log(tracer.nextBatchBase() + 0);
    log.beginSpan("episode", "b1.e0", 0.0, 100.0);
    log.beginSpan("phase", "plan", 0.5, 100.1, 0);
    log.instant("llm", "batch sim", 0.75, -1, {{"requests", 2.0}});
    // Every byte the escaper rewrites must read back unchanged.
    std::string awkward = "q\"b\\s";
    for (char c = 0x01; c < 0x20; ++c)
        awkward += c;
    log.instant("llm", awkward, 0.8);
    log.endSpan(1.5, 100.4);
    log.closeOpenSpans(2.0, 100.5);
    tracer.adopt(std::move(log));
    tracer.hostTask("sched", "episode task", 100.0, 100.5, 0);

    const std::string path =
        testing::TempDir() + "/ebs_trace_roundtrip.json";
    ASSERT_TRUE(tracer.writeChromeJson(path, "round trip", 10));

    tracer.clear();
    ebs::obs::setTraceEnabled(false);

    const auto result = parseTraceFile(path);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.events.size(), 5u);
    const auto issues = validate(result.events);
    std::string joined;
    for (const auto &issue : issues)
        joined += issue + "\n";
    EXPECT_TRUE(issues.empty()) << joined;

    // All three tracks (sim, host projection, sched tasks) are present
    // at the requested pid base.
    bool saw_sim = false, saw_host = false, saw_sched = false;
    for (const auto &event : result.events) {
        saw_sim |= event.pid == 10 && event.ph != 'M';
        saw_host |= event.pid == 11 && event.ph != 'M';
        saw_sched |= event.pid == 12 && event.cat == "sched";
    }
    EXPECT_TRUE(saw_sim);
    EXPECT_TRUE(saw_host);
    EXPECT_TRUE(saw_sched);
    bool saw_awkward = false;
    for (const auto &event : result.events)
        saw_awkward |= event.name == awkward;
    EXPECT_TRUE(saw_awkward);

    EXPECT_NE(summarize(result.events).find("episode;plan"),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
