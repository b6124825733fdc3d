#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/metric_diff.h"
#include "stats/phase_wall.h"
#include "suite.h"

/**
 * Unit tests for the in-process suite registry and SuiteContext
 * (bench/suite.h): registration order vs. sorted listing, sink capture,
 * smoke-mode seed clamping, the stamping that re-points
 * process-global clock/tracer defaults at the per-suite instances, and
 * the shared-service summary folded from the rows a suite passes.
 */

namespace {

using ebs::bench::SuiteContext;
using ebs::bench::SuiteInfo;
using ebs::bench::SuiteRegistry;

int
dummySuite(SuiteContext &)
{
    return 0;
}

// Registered the way a real suite registers (static initializer).
EBS_BENCH_SUITE("bench_zz_macro", "macro-registered test suite",
                dummySuite);

/** Read everything written to a tmpfile-backed sink. */
std::string
drained(std::FILE *f)
{
    std::fflush(f);
    std::rewind(f);
    std::string text;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    return text;
}

TEST(SuiteRegistry, SortedListingAndLookup)
{
    auto &registry = SuiteRegistry::instance();
    registry.add({"bench_aa_added", "added after the macro", dummySuite});

    const auto &suites = registry.suites();
    ASSERT_GE(suites.size(), 2u);
    for (std::size_t i = 1; i < suites.size(); ++i)
        EXPECT_LT(suites[i - 1].name, suites[i].name);

    const SuiteInfo *found = registry.find("bench_zz_macro");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->description, "macro-registered test suite");
    EXPECT_EQ(found->fn, &dummySuite);
    EXPECT_NE(registry.find("bench_aa_added"), nullptr);
    EXPECT_EQ(registry.find("bench_not_registered"), nullptr);
}

TEST(SuiteContext, SinksCaptureEveryWrite)
{
    std::FILE *out = std::tmpfile();
    std::FILE *err = std::tmpfile();
    ASSERT_NE(out, nullptr);
    ASSERT_NE(err, nullptr);
    {
        SuiteContext::Config config;
        config.out = out;
        config.err = err;
        SuiteContext ctx(config);
        ctx.printf("table %d\n", 7);
        ctx.write("raw bytes");
        ctx.eprintf("diag %.1f\n", 0.5);
        EXPECT_EQ(ctx.out(), out);
        EXPECT_EQ(ctx.err(), err);
    }
    EXPECT_EQ(drained(out), "table 7\nraw bytes");
    EXPECT_EQ(drained(err), "diag 0.5\n");
    std::fclose(out);
    std::fclose(err);
}

TEST(SuiteContext, SmokeClampsSeeds)
{
    SuiteContext::Config config;
    config.smoke = true;
    SuiteContext smoke_ctx(config);
    EXPECT_TRUE(smoke_ctx.smoke());
    EXPECT_EQ(smoke_ctx.seedCount(12), 1);

    SuiteContext full_ctx({});
    EXPECT_FALSE(full_ctx.smoke());
    EXPECT_EQ(full_ctx.seedCount(12), 12);
}

TEST(SuiteContext, ArgsPassThrough)
{
    SuiteContext::Config config;
    config.args = {"--window=0.5", "extra"};
    SuiteContext ctx(config);
    EXPECT_EQ(ctx.args(),
              (std::vector<std::string>{"--window=0.5", "extra"}));
}

TEST(SuiteContext, StampingRepointsSharedDefaultsOnly)
{
    SuiteContext ctx({});

    // A job left at the process-global defaults gets the per-suite
    // instances — the substitution that keeps per-suite accounting
    // (phase-wall splits, trace tracks) intact without process
    // isolation.
    ebs::runner::EpisodeJob defaulted;
    const auto stamped = ctx.stamped(defaulted);
    EXPECT_EQ(stamped.phase_wall, &ctx.phaseWall());
    EXPECT_EQ(stamped.tracer, &ctx.tracer());

    // Deliberately-stamped fields pass through untouched.
    ebs::stats::PhaseWallClock private_wall;
    ebs::runner::EpisodeJob pinned;
    pinned.phase_wall = &private_wall;
    const auto kept = ctx.stamped(pinned);
    EXPECT_EQ(kept.phase_wall, &private_wall);

    // The context owns a private tracer (per-suite trace tracks).
    EXPECT_NE(&ctx.tracer(), &ebs::obs::Tracer::shared());
}

TEST(SuiteContext, MetricEmissionFormat)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    SuiteContext::Config config;
    config.out = out;
    SuiteContext ctx(config);
    ctx.emitScalarMetric("demo/case", "spec_exec_speedup", 1.25);
    EXPECT_EQ(drained(out),
              "EBS_METRIC {\"case\":\"demo/case\","
              "\"spec_exec_speedup\":1.250000}\n");
    std::fclose(out);

    // A case name with a tab, a quote and a backslash reads back
    // byte-equal through the BENCH_results.json parser.
    const std::string awkward = "demo\tcase \"q\" \\";
    std::FILE *again = std::tmpfile();
    ASSERT_NE(again, nullptr);
    config.out = again;
    SuiteContext escaping(config);
    escaping.emitScalarMetric(awkward, "speedup", 2.0);
    std::string line = drained(again);
    std::fclose(again);
    const std::string prefix = "EBS_METRIC ";
    ASSERT_EQ(line.rfind(prefix, 0), 0u) << line;
    ASSERT_EQ(line.back(), '\n');
    const std::string payload =
        line.substr(prefix.size(), line.size() - prefix.size() - 1);
    std::string error;
    const auto entries = ebs::stats::parseBenchResults(
        "{\"suites\":{\"s\":{\"paper_metrics\":[" + payload + "]}}}",
        &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].case_name, awkward);
    EXPECT_DOUBLE_EQ(entries[0].values.at("speedup"), 2.0);
}

TEST(SuiteContext, SharedServiceSummaryFoldsTheGivenRows)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    SuiteContext::Config config;
    config.out = out;
    SuiteContext ctx(config);

    // Two rows: 5 + 7 calls in 3 + 1 batches of 2/1/1 and 8 requests.
    ebs::runner::RunStats a;
    a.llm_calls = 5;
    for (const int requests : {2, 1, 1}) {
        ebs::llm::BatchRecord record;
        record.requests = requests;
        a.batching.add(record);
    }
    ebs::runner::RunStats b;
    b.llm_calls = 7;
    ebs::llm::BatchRecord record;
    record.requests = 8;
    b.batching.add(record);
    // A row outside the span never counts.
    ebs::runner::RunStats outside = b;

    const std::vector<ebs::runner::RunStats> rows = {a, b, outside};
    ctx.emitSharedServiceSummary("demo fleet",
                                 std::span(rows).first(2));
    EXPECT_EQ(drained(out),
              "shared engine service: 12 calls, 4 batches "
              "(2 cross-agent), occupancy 3.00\n"
              "EBS_METRIC {\"case\":\"demo fleet\","
              "\"batch_occupancy\":3.000000}\n");
    std::fclose(out);
}

} // namespace
