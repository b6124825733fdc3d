/**
 * @file
 * Tests for the paper-metric regression differ (stats/metric_diff.h):
 * parsing the BENCH_results.json shape run_all emits, tolerance
 * semantics, direction awareness (success down vs. latency up), and
 * missing-case handling. bench/diff_metrics is a thin CLI over this.
 */

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "stats/metric_diff.h"

namespace {

using namespace ebs::stats;

/** A minimal but structurally faithful BENCH_results.json. */
std::string
benchJson(double success, double s_per_step, double tokens)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema_version\": 2,\n"
        "  \"smoke\": true,\n"
        "  \"suites\": {\n"
        "    \"bench_x\": {\n"
        "      \"exit_code\": 0,\n"
        "      \"wall_seconds\": 1.25,\n"
        "      \"max_rss_kb\": 9000,\n"
        "      \"paper_metrics\": [\n"
        "        {\"case\":\"alpha\",\"episodes\":4,"
        "\"success_rate\":%.4f,\"s_per_step\":%.4f,"
        "\"tokens_per_episode\":%.1f},\n"
        "        {\"case\":\"beta\",\"success_rate\":0.5000,"
        "\"ignored\":null}\n"
        "      ]\n"
        "    },\n"
        "    \"bench_empty\": {\n"
        "      \"exit_code\": 0,\n"
        "      \"paper_metrics\": []\n"
        "    }\n"
        "  }\n"
        "}\n",
        success, s_per_step, tokens);
    return buf;
}

TEST(MetricDiffParse, ExtractsSuiteCaseAndNumericFields)
{
    std::string error;
    const auto entries =
        parseBenchResults(benchJson(0.75, 12.5, 30000), &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].suite, "bench_x");
    EXPECT_EQ(entries[0].case_name, "alpha");
    EXPECT_DOUBLE_EQ(entries[0].values.at("success_rate"), 0.75);
    EXPECT_DOUBLE_EQ(entries[0].values.at("s_per_step"), 12.5);
    EXPECT_DOUBLE_EQ(entries[0].values.at("episodes"), 4.0);
    EXPECT_EQ(entries[1].case_name, "beta");
    // null metrics are skipped, not zeroed.
    EXPECT_EQ(entries[1].values.count("ignored"), 0u);
}

TEST(MetricDiffParse, MalformedInputReportsError)
{
    std::string error;
    EXPECT_TRUE(parseBenchResults("{\"suites\": {", &error).empty());
    EXPECT_FALSE(error.empty());

    error.clear();
    EXPECT_TRUE(parseBenchResults("[1,2,3] trailing", &error).empty());
    EXPECT_FALSE(error.empty());
}

TEST(MetricDiffParse, EmptyDocumentHasNoEntries)
{
    std::string error;
    EXPECT_TRUE(parseBenchResults("{}", &error).empty());
    EXPECT_TRUE(error.empty());
}

/** Wrap one paper_metrics object literal in the run_all envelope. */
std::string
wrapMetricObject(const std::string &object_json)
{
    return "{\"suites\":{\"bench_x\":{\"paper_metrics\":[" + object_json +
           "]}}}";
}

TEST(MetricDiffParse, UnicodeEscapesDecodeInsteadOfAliasing)
{
    // Two keys differing only inside a \uXXXX escape used to both decode
    // to "k?" and alias to one metric, comparing against the wrong
    // baseline value. They must stay distinct (decoded to UTF-8).
    std::string error;
    const auto entries = parseBenchResults(
        wrapMetricObject("{\"case\":\"alpha\","
                         "\"k\\u00e9\":1.0,\"k\\u00e8\":2.0}"),
        &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].values.size(), 2u);
    EXPECT_DOUBLE_EQ(entries[0].values.at("k\xC3\xA9"), 1.0);
    EXPECT_DOUBLE_EQ(entries[0].values.at("k\xC3\xA8"), 2.0);

    // ASCII, multi-byte, and surrogate-pair escapes all decode.
    error.clear();
    const auto decoded = parseBenchResults(
        wrapMetricObject("{\"case\":\"A\\u0042\\u20ac"
                         "\\ud83d\\ude00\",\"v\":1.0}"),
        &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].case_name, "AB\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(MetricDiffParse, MalformedEscapesFailTheParse)
{
    const char *bad[] = {
        "{\"case\":\"x\\u12\",\"v\":1}",       // truncated hex
        "{\"case\":\"x\\u12zq\",\"v\":1}",     // non-hex digit
        "{\"case\":\"x\\ud800\",\"v\":1}",     // unpaired high surrogate
        "{\"case\":\"x\\ud800\\u0041\",\"v\":1}", // bad low surrogate
        "{\"case\":\"x\\udc00\",\"v\":1}",     // unpaired low surrogate
        "{\"case\":\"x\\q\",\"v\":1}",         // unknown escape
    };
    for (const char *object_json : bad) {
        std::string error;
        EXPECT_TRUE(
            parseBenchResults(wrapMetricObject(object_json), &error)
                .empty())
            << object_json;
        EXPECT_FALSE(error.empty()) << object_json;
    }
}

TEST(MetricDiffParse, ControlCharacterEscapesDecode)
{
    std::string error;
    const auto entries = parseBenchResults(
        wrapMetricObject(
            "{\"case\":\"a\\b\\f\\r\\n\\tb\\/c\",\"v\":1.0}"),
        &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].case_name, "a\b\f\r\n\tb/c");
}

TEST(MetricDiff, IdenticalFilesAreClean)
{
    std::string error;
    const auto entries =
        parseBenchResults(benchJson(0.8, 10.0, 20000), &error);
    const auto report = diffMetrics(entries, entries, DiffOptions{});
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.regressions.empty());
    EXPECT_TRUE(report.improvements.empty());
    EXPECT_TRUE(report.missing_cases.empty());
    EXPECT_GT(report.compared_values, 0);
}

TEST(MetricDiff, DirectionalRegressionsAreFlagged)
{
    std::string error;
    const auto old_entries =
        parseBenchResults(benchJson(0.8, 10.0, 20000), &error);
    // Success collapses, latency doubles, tokens double: 3 regressions.
    const auto new_entries =
        parseBenchResults(benchJson(0.2, 20.0, 40000), &error);
    DiffOptions options;
    options.abs_tol = 0.05;
    options.rel_tol = 0.10;
    const auto report = diffMetrics(old_entries, new_entries, options);
    EXPECT_FALSE(report.ok);
    ASSERT_EQ(report.regressions.size(), 3u);
    for (const auto &delta : report.regressions)
        EXPECT_TRUE(delta.regression);
}

TEST(MetricDiff, ImprovementsAreNotRegressions)
{
    std::string error;
    const auto old_entries =
        parseBenchResults(benchJson(0.5, 20.0, 40000), &error);
    const auto new_entries =
        parseBenchResults(benchJson(0.9, 10.0, 20000), &error);
    const auto report =
        diffMetrics(old_entries, new_entries, DiffOptions{});
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.regressions.empty());
    EXPECT_EQ(report.improvements.size(), 3u);

    // --fail-on-improvement enforces the acknowledged-refresh policy:
    // in a deterministic sim an out-of-tolerance improvement is a real
    // code-driven change, and a stale baseline would mask the reverse
    // regression later.
    DiffOptions strict;
    strict.fail_on_improvement = true;
    EXPECT_FALSE(diffMetrics(old_entries, new_entries, strict).ok);
}

TEST(MetricDiff, AnchoredMetricsFlagDriftInEitherDirection)
{
    // Calibration targets (llm_latency_share ~ paper's 0.70) regress by
    // drifting away from the baseline either way — a "rise" is not an
    // improvement.
    auto entry = [](double share) {
        std::vector<MetricEntry> entries(1);
        entries[0].suite = "bench_fig2";
        entries[0].case_name = "aggregate";
        entries[0].values["llm_latency_share"] = share;
        return entries;
    };

    DiffOptions options;
    options.abs_tol = 0.05;
    options.rel_tol = 0.10;
    for (const double drifted : {0.10, 0.99}) {
        const auto report =
            diffMetrics(entry(0.70), entry(drifted), options);
        EXPECT_FALSE(report.ok) << "drift to " << drifted;
        ASSERT_EQ(report.regressions.size(), 1u);
        EXPECT_TRUE(report.improvements.empty());
    }
    EXPECT_TRUE(diffMetrics(entry(0.70), entry(0.72), options).ok);
}

TEST(MetricDiff, ToleranceSuppressesSmallDrift)
{
    std::string error;
    const auto old_entries =
        parseBenchResults(benchJson(0.80, 10.0, 20000), &error);
    const auto new_entries =
        parseBenchResults(benchJson(0.76, 10.8, 21500), &error);
    DiffOptions options;
    options.abs_tol = 0.05; // covers the 0.04 success drop
    options.rel_tol = 0.10; // covers the 8% latency / token drift
    const auto report = diffMetrics(old_entries, new_entries, options);
    EXPECT_TRUE(report.ok) << report.regressions.size();

    // Tightening both tolerances exposes the same drift.
    options.abs_tol = 0.01;
    options.rel_tol = 0.02;
    EXPECT_FALSE(
        diffMetrics(old_entries, new_entries, options).ok);
}

TEST(MetricDiff, NonFiniteOrNegativeTolerancesAreRejected)
{
    std::string error;
    const auto old_entries =
        parseBenchResults(benchJson(0.80, 10.0, 20000), &error);
    const auto new_entries =
        parseBenchResults(benchJson(0.20, 40.0, 90000), &error);
    auto expectRejected = [&](bool abs_field, double bad) {
        SCOPED_TRACE(bad);
        DiffOptions options;
        (abs_field ? options.abs_tol : options.rel_tol) = bad;
        try {
            diffMetrics(old_entries, new_entries, options);
            ADD_FAILURE() << "accepted a tolerance of " << bad;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          abs_field ? "DiffOptions::abs_tol"
                                    : "DiffOptions::rel_tol"),
                      std::string::npos)
                << e.what();
        }
    };
    // Each of these would switch the gate off (or trip it on any
    // change), so the differ refuses them and names the field.
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -1.0}) {
        expectRejected(true, bad);
        expectRejected(false, bad);
    }
    // A relative tolerance above 1 passes a change larger than the old
    // value itself; 1 is still a setting.
    for (const double bad : {1.0000001, 2.0, 1e308})
        expectRejected(false, bad);
    DiffOptions whole;
    whole.rel_tol = 1.0;
    EXPECT_NO_THROW(diffMetrics(old_entries, new_entries, whole));

    // Zero and the defaults stay valid, and a zero tolerance still
    // flags the regression the inf tolerance hid.
    EXPECT_TRUE(diffMetrics(old_entries, old_entries, DiffOptions{}).ok);
    DiffOptions exact;
    exact.abs_tol = 0.0;
    exact.rel_tol = 0.0;
    EXPECT_FALSE(diffMetrics(old_entries, new_entries, exact).ok);
}

TEST(MetricDiff, MissingCasesWarnByDefaultFailOnRequest)
{
    std::string error;
    const auto old_entries =
        parseBenchResults(benchJson(0.8, 10.0, 20000), &error);
    std::vector<MetricEntry> new_entries;
    new_entries.push_back(old_entries[0]); // "beta" disappears

    DiffOptions options;
    auto report = diffMetrics(old_entries, new_entries, options);
    EXPECT_TRUE(report.ok);
    ASSERT_EQ(report.missing_cases.size(), 1u);
    EXPECT_EQ(report.missing_cases[0], "bench_x/beta");

    options.fail_on_missing = true;
    report = diffMetrics(old_entries, new_entries, options);
    EXPECT_FALSE(report.ok);
}

TEST(MetricDiff, MissingMetricKeysWarnByDefaultFailOnRequest)
{
    std::string error;
    const auto old_entries =
        parseBenchResults(benchJson(0.8, 10.0, 20000), &error);
    auto new_entries = old_entries;
    // The case stays but one of its metrics vanishes — the gate must not
    // silently pass on the shrunken comparison.
    new_entries[0].values.erase("s_per_step");

    DiffOptions options;
    auto report = diffMetrics(old_entries, new_entries, options);
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.missing_cases.empty());
    ASSERT_EQ(report.missing_metrics.size(), 1u);
    EXPECT_EQ(report.missing_metrics[0], "bench_x/alpha:s_per_step");

    options.fail_on_missing = true;
    report = diffMetrics(old_entries, new_entries, options);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.regressions.empty());
}

TEST(MetricDiff, NewCasesAreInformational)
{
    std::string error;
    const auto new_entries =
        parseBenchResults(benchJson(0.8, 10.0, 20000), &error);
    std::vector<MetricEntry> old_entries;
    old_entries.push_back(new_entries[0]);

    const auto report =
        diffMetrics(old_entries, new_entries, DiffOptions{});
    EXPECT_TRUE(report.ok);
    ASSERT_EQ(report.new_cases.size(), 1u);
    EXPECT_EQ(report.new_cases[0], "bench_x/beta");
}

TEST(MetricDiff, DuplicateCaseEntriesAreMergedNotShadowed)
{
    // run_all emits one entry per EBS_METRIC line, and benches emit
    // several lines per case (emitMetric + emitScalarMetric): the diff
    // must compare the union of their values, not the last line only.
    auto split = [](double success, double occupancy) {
        std::vector<MetricEntry> entries(2);
        entries[0].suite = "bench_x";
        entries[0].case_name = "alpha";
        entries[0].values["success_rate"] = success;
        entries[1].suite = "bench_x";
        entries[1].case_name = "alpha";
        entries[1].values["batch_occupancy"] = occupancy;
        return entries;
    };

    DiffOptions options;
    options.abs_tol = 0.05;
    options.rel_tol = 0.10;

    // A success_rate collapse in the FIRST duplicate must still flag
    // even though a later entry re-uses the same (suite, case).
    auto report = diffMetrics(split(0.9, 3.0), split(0.1, 3.0), options);
    ASSERT_EQ(report.regressions.size(), 1u);
    EXPECT_EQ(report.regressions[0].key, "success_rate");
    EXPECT_EQ(report.compared_values, 2);
    EXPECT_TRUE(report.new_cases.empty());
    EXPECT_TRUE(report.missing_cases.empty());

    // And an occupancy collapse in the SECOND duplicate flags too.
    report = diffMetrics(split(0.9, 3.0), split(0.9, 1.0), options);
    ASSERT_EQ(report.regressions.size(), 1u);
    EXPECT_EQ(report.regressions[0].key, "batch_occupancy");
}

TEST(MetricDiff, DirectionTable)
{
    EXPECT_EQ(metricDirection("success_rate"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("batch_occupancy"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("cross_episode_occupancy"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("cross_episode_saved_pct"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("batch_charge_saved_pct"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("cross_episode_windowed_occupancy"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("cross_episode_windowed_saved_pct"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("backend_occupancy"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("max_sustainable_eps"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("s_per_step"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("queue_delay_share"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("p50_episode_latency_s"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("p99_episode_latency_s"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("batched_s_per_step"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("tokens_per_episode"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("llm_latency_share"),
              MetricDirection::Anchored);
    EXPECT_EQ(metricDirection("memory_ablation_steps_ratio"),
              MetricDirection::Anchored);
    EXPECT_EQ(metricDirection("message_utility"),
              MetricDirection::Anchored);
    EXPECT_EQ(metricDirection("episodes"),
              MetricDirection::Informational);
    EXPECT_EQ(metricDirection("anything_else"),
              MetricDirection::Informational);
}

} // namespace
