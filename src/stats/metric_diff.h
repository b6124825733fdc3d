#ifndef EBS_STATS_METRIC_DIFF_H
#define EBS_STATS_METRIC_DIFF_H

#include <map>
#include <string>
#include <vector>

namespace ebs::stats {

/**
 * Paper-metric regression diffing between two BENCH_results.json files
 * (the tolerance-based trajectory guard the ROADMAP called for).
 *
 * The parser understands exactly the JSON run_all emits: a top-level
 * object with a "suites" map, each suite carrying a "paper_metrics"
 * array of flat objects whose "case" string names the measurement and
 * whose remaining numeric fields are the metrics. It reads the document
 * with the repo's strict JSON reader (obs::JsonReader): unknown structure
 * is skipped, malformed input is an error.
 */

/** One measurement: (suite, case) plus its numeric metric fields. */
struct MetricEntry
{
    std::string suite;
    std::string case_name;
    std::map<std::string, double> values;
};

/**
 * Extract every paper metric from a BENCH_results.json document.
 * Returns an empty list and sets `*error` on malformed input.
 */
std::vector<MetricEntry> parseBenchResults(const std::string &json_text,
                                           std::string *error);

/** Which direction of change is a regression for a metric key. */
enum class MetricDirection
{
    HigherIsBetter, ///< e.g. success_rate: a drop is a regression
    LowerIsBetter,  ///< e.g. s_per_step: a rise is a regression
    /** Calibration target reproducing a paper value (e.g.
     * llm_latency_share ~ 0.70): drifting out of tolerance in EITHER
     * direction is a regression — "higher" is not better, closer is. */
    Anchored,
    Informational,  ///< e.g. episodes: never a regression
};

/** Built-in direction table for the keys bench_util.h emits; unknown
 * keys are Informational. */
MetricDirection metricDirection(const std::string &key);

struct DiffOptions
{
    /** Absolute change below this never flags (per metric). */
    double abs_tol = 0.05;
    /** Relative change below this never flags (vs. the old magnitude). */
    double rel_tol = 0.10;
    /** Treat cases — and individual metric keys of still-present cases —
     * present in old but missing in new as regressions. */
    bool fail_on_missing = false;
    /** Fail on out-of-tolerance improvements too. For a deterministic
     * simulator every such shift is a real code-driven change, and a
     * baseline left stale after one would mask the reverse regression
     * later — this flag forces the baseline refresh to be acknowledged
     * in the same change. */
    bool fail_on_improvement = false;
};

/** One flagged metric change. */
struct MetricDelta
{
    std::string suite;
    std::string case_name;
    std::string key;
    double old_value = 0.0;
    double new_value = 0.0;
    bool regression = false; ///< worsened beyond tolerance (directional)
};

struct DiffReport
{
    std::vector<MetricDelta> regressions;  ///< worsened beyond tolerance
    std::vector<MetricDelta> improvements; ///< bettered beyond tolerance
    std::vector<std::string> missing_cases; ///< "suite/case" gone in new
    /** "suite/case:key" — metric gone from a still-present case (e.g. a
     * bench stopped emitting success_rate): a coverage gap, never a
     * silent pass. */
    std::vector<std::string> missing_metrics;
    std::vector<std::string> new_cases;     ///< "suite/case" new-only
    int compared_values = 0;

    /** True when nothing fails under the options it was built with. */
    bool ok = true;
};

/**
 * Compare two parsed metric sets. A change flags when it exceeds BOTH
 * the absolute and the relative tolerance; whether a flagged change is a
 * regression or an improvement follows metricDirection(). Cases are
 * matched by (suite, case); Informational keys never flag. Throws
 * std::invalid_argument naming the field when a tolerance is negative
 * or not finite.
 */
DiffReport diffMetrics(const std::vector<MetricEntry> &old_entries,
                       const std::vector<MetricEntry> &new_entries,
                       const DiffOptions &options);

} // namespace ebs::stats

#endif // EBS_STATS_METRIC_DIFF_H
