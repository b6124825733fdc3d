#include "stats/metric_diff.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.h"

namespace ebs::stats {

namespace {

/** Parse one paper_metrics element into a MetricEntry: the "case"
 * string plus every finite numeric member. */
MetricEntry
parseMetricObject(obs::JsonReader &reader, const std::string &suite)
{
    MetricEntry entry;
    entry.suite = suite;
    reader.parseObjectWith([&](const std::string &key) {
        if (key == "case") {
            entry.case_name = reader.parseString();
        } else if (!reader.peekNumber()) {
            reader.skipValue();
        } else {
            const double value = reader.parseNumber();
            if (std::isfinite(value))
                entry.values[key] = value;
        }
    });
    return entry;
}

} // namespace

std::vector<MetricEntry>
parseBenchResults(const std::string &json_text, std::string *error)
{
    if (error != nullptr)
        error->clear();
    std::vector<MetricEntry> entries;
    obs::JsonReader reader(json_text, error);

    reader.parseObjectWith([&](const std::string &top_key) {
        if (top_key != "suites") {
            reader.skipValue();
            return;
        }
        reader.parseObjectWith([&](const std::string &suite) {
            reader.parseObjectWith([&](const std::string &field) {
                if (field != "paper_metrics") {
                    reader.skipValue();
                    return;
                }
                reader.parseArrayWith([&] {
                    MetricEntry entry = parseMetricObject(reader, suite);
                    if (!entry.case_name.empty())
                        entries.push_back(std::move(entry));
                });
            });
        });
    });
    if (!reader.finish())
        entries.clear();
    return entries;
}

MetricDirection
metricDirection(const std::string &key)
{
    // Higher is better.
    if (key == "success_rate" || key == "speedup" ||
        key == "batch_occupancy" || key == "cross_episode_occupancy" ||
        key == "latency_saved_pct" || key == "cross_episode_saved_pct" ||
        key == "batch_charge_saved_pct" ||
        key == "cross_episode_windowed_occupancy" ||
        key == "cross_episode_windowed_saved_pct" ||
        key == "spec_exec_speedup" || key == "backend_occupancy" ||
        key == "max_sustainable_eps")
        return MetricDirection::HigherIsBetter;
    // Lower is better: cost-like metrics bench_util.h emits.
    if (key == "s_per_step" || key == "runtime_min" ||
        key == "avg_steps" || key == "llm_calls_per_episode" ||
        key == "tokens_per_episode" || key == "batched_s_per_step" ||
        key == "spec_conflict_rate" || key == "spec_reexec_fraction" ||
        key == "queue_delay_share" || key == "p50_episode_latency_s" ||
        key == "p99_episode_latency_s")
        return MetricDirection::LowerIsBetter;
    // Calibration targets: these reproduce specific paper values
    // (LLM latency share ~0.70, memory ablation ~1.61x steps, ...), so
    // drifting out of tolerance either way means the model broke.
    if (key == "llm_latency_share" || key == "reflection_latency_share" ||
        key == "memory_ablation_steps_ratio" ||
        key == "reflection_ablation_steps_ratio" ||
        key == "plan_prompt_growth_ratio" || key == "message_utility")
        return MetricDirection::Anchored;
    return MetricDirection::Informational;
}

namespace {

using CaseKey = std::pair<std::string, std::string>;
using CaseIndex = std::map<CaseKey, std::map<std::string, double>>;

/**
 * Consolidate entries by (suite, case), merging their value maps:
 * run_all emits one entry per EBS_METRIC line and benches emit several
 * lines per case (emitMetric + emitScalarMetric share the case name),
 * so diffing must see the union, not whichever line came last.
 */
CaseIndex
indexByCase(const std::vector<MetricEntry> &entries)
{
    CaseIndex index;
    for (const auto &entry : entries) {
        auto &values = index[{entry.suite, entry.case_name}];
        for (const auto &[key, value] : entry.values)
            values[key] = value;
    }
    return index;
}

/** A tolerance of inf, NaN or below 0 would switch the gate off (or
 * make every comparison flag), and a relative one above 1 passes a
 * change larger than the old value itself, so each is a caller error,
 * not a setting. */
void
requireTolerance(double value, const char *field)
{
    if (!std::isfinite(value) || value < 0.0)
        throw std::invalid_argument(std::string("DiffOptions::") + field +
                                    " must be finite and >= 0, got " +
                                    std::to_string(value));
}

} // namespace

DiffReport
diffMetrics(const std::vector<MetricEntry> &old_entries,
            const std::vector<MetricEntry> &new_entries,
            const DiffOptions &options)
{
    requireTolerance(options.abs_tol, "abs_tol");
    requireTolerance(options.rel_tol, "rel_tol");
    if (options.rel_tol > 1.0)
        throw std::invalid_argument("DiffOptions::rel_tol must be <= 1, got " +
                                    std::to_string(options.rel_tol));
    DiffReport report;

    const CaseIndex old_index = indexByCase(old_entries);
    const CaseIndex new_index = indexByCase(new_entries);

    for (const auto &[key, old_values] : old_index) {
        const auto found = new_index.find(key);
        if (found == new_index.end()) {
            report.missing_cases.push_back(key.first + "/" + key.second);
            continue;
        }
        const auto &new_values = found->second;
        for (const auto &[metric, old_value] : old_values) {
            const auto new_it = new_values.find(metric);
            if (new_it == new_values.end()) {
                report.missing_metrics.push_back(key.first + "/" +
                                                 key.second + ":" + metric);
                continue;
            }
            const double new_value = new_it->second;
            ++report.compared_values;

            // Relative tolerance is anchored on the OLD magnitude (per
            // DiffOptions): scaling by max(old, new) would let a
            // lower-is-better metric grow 1/(1-rel_tol)-fold — 2.5x at
            // rel_tol 0.6 — before flagging.
            const double delta = new_value - old_value;
            if (std::fabs(delta) <= options.abs_tol ||
                std::fabs(delta) <= options.rel_tol * std::fabs(old_value))
                continue;

            const MetricDirection direction = metricDirection(metric);
            if (direction == MetricDirection::Informational)
                continue;
            const bool worsened =
                direction == MetricDirection::Anchored ||
                (direction == MetricDirection::HigherIsBetter ? delta < 0
                                                              : delta > 0);
            MetricDelta flagged;
            flagged.suite = key.first;
            flagged.case_name = key.second;
            flagged.key = metric;
            flagged.old_value = old_value;
            flagged.new_value = new_value;
            flagged.regression = worsened;
            (worsened ? report.regressions : report.improvements)
                .push_back(std::move(flagged));
        }
    }

    for (const auto &[key, values] : new_index) {
        (void)values;
        if (old_index.count(key) == 0)
            report.new_cases.push_back(key.first + "/" + key.second);
    }

    report.ok = report.regressions.empty() &&
                (!options.fail_on_improvement ||
                 report.improvements.empty()) &&
                (!options.fail_on_missing ||
                 (report.missing_cases.empty() &&
                  report.missing_metrics.empty()));
    return report;
}

} // namespace ebs::stats
