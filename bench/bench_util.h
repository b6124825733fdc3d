#ifndef EBS_BENCH_BENCH_UTIL_H
#define EBS_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdio>
#include <string>

#include "runner/run_stats.h"

/**
 * Pure bench helpers: formatting and metric arithmetic. Everything that
 * *emits* suite output (EBS_METRIC lines, tables) lives on
 * bench::SuiteContext (suite.h) so all suite I/O flows through the
 * per-suite sinks — the `suite-io` lint rule bans direct stream writes
 * under bench/ to keep it that way.
 */
namespace ebs::bench {

/** Averaged episode metrics (promoted into the library in PR 2). */
using runner::RunStats;

/** Format a double as a JSON number; non-finite values become null so a
 * stray NaN/Inf metric cannot corrupt BENCH_results.json. */
inline std::string
jsonNum(double v, int precision)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

/**
 * Fraction of sequential step latency saved by the charged-batching
 * ablation (`batch_llm_calls`), from the two runs' s/step. Sub-epsilon
 * ratios are float noise from the reassociated clock sums, not a real
 * (anti-)saving, and are reported as exactly zero — the single
 * definition behind every suite's `batch_charge_saved_pct`.
 */
inline double
chargedSavedFraction(double sequential_s_per_step,
                     double charged_s_per_step)
{
    if (sequential_s_per_step <= 0.0)
        return 0.0;
    const double saved = 1.0 - charged_s_per_step / sequential_s_per_step;
    return std::abs(saved) < 1e-9 ? 0.0 : saved;
}

} // namespace ebs::bench

#endif // EBS_BENCH_BENCH_UTIL_H
