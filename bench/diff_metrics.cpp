/**
 * @file
 * Tolerance-based paper-metric diff between two BENCH_results.json files
 * (the ROADMAP's trajectory guard): compares every (suite, case, metric)
 * the old file carries against the new one and fails loudly when a
 * directional metric — success rate down, s/step up, token volume up —
 * worsens beyond both tolerances. Simulated metrics are deterministic per
 * seed, so a committed baseline makes CI catch paper-metric regressions,
 * not just runtime ones.
 *
 * Usage:
 *   diff_metrics OLD.json NEW.json [--abs-tol X] [--rel-tol Y]
 *                [--fail-on-missing] [--fail-on-improvement] [--quiet]
 *
 * Exit codes: 0 within tolerance, 1 regressions (or missing cases /
 * missing per-case metric keys with --fail-on-missing, or
 * out-of-tolerance improvements with --fail-on-improvement), 2
 * usage/IO/parse errors — including a negative or non-finite
 * tolerance, and a comparison that covers zero metrics, which would
 * otherwise pass vacuously on a corrupted or empty baseline.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "stats/metric_diff.h"

namespace {

bool
readFile(const char *path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return true;
}

bool
parseDouble(const char *text, double *out)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return false;
    *out = v;
    return true;
}

void
printDelta(const char *tag, const ebs::stats::MetricDelta &delta)
{
    std::printf("  %s %s / %s : %s %.4f -> %.4f (%+.4f)\n", tag,
                delta.suite.c_str(), delta.case_name.c_str(),
                delta.key.c_str(), delta.old_value, delta.new_value,
                delta.new_value - delta.old_value);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *old_path = nullptr;
    const char *new_path = nullptr;
    ebs::stats::DiffOptions options;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--abs-tol") == 0 && i + 1 < argc) {
            if (!parseDouble(argv[++i], &options.abs_tol)) {
                std::fprintf(stderr,
                             "diff_metrics: bad --abs-tol '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(arg, "--rel-tol") == 0 && i + 1 < argc) {
            if (!parseDouble(argv[++i], &options.rel_tol)) {
                std::fprintf(stderr,
                             "diff_metrics: bad --rel-tol '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(arg, "--fail-on-missing") == 0) {
            options.fail_on_missing = true;
        } else if (std::strcmp(arg, "--fail-on-improvement") == 0) {
            options.fail_on_improvement = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr,
                         "usage: diff_metrics OLD.json NEW.json "
                         "[--abs-tol X] [--rel-tol Y] [--fail-on-missing] "
                         "[--fail-on-improvement] [--quiet]\n");
            return std::strcmp(arg, "--help") == 0 ||
                           std::strcmp(arg, "-h") == 0
                       ? 0
                       : 2;
        } else if (old_path == nullptr) {
            old_path = arg;
        } else if (new_path == nullptr) {
            new_path = arg;
        } else {
            std::fprintf(stderr, "diff_metrics: unexpected argument '%s'\n",
                         arg);
            return 2;
        }
    }
    if (old_path == nullptr || new_path == nullptr) {
        std::fprintf(stderr,
                     "diff_metrics: need OLD.json and NEW.json paths\n");
        return 2;
    }

    std::string old_text;
    std::string new_text;
    if (!readFile(old_path, &old_text)) {
        std::fprintf(stderr, "diff_metrics: cannot read %s\n", old_path);
        return 2;
    }
    if (!readFile(new_path, &new_text)) {
        std::fprintf(stderr, "diff_metrics: cannot read %s\n", new_path);
        return 2;
    }

    std::string error;
    const auto old_entries =
        ebs::stats::parseBenchResults(old_text, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "diff_metrics: %s: %s\n", old_path,
                     error.c_str());
        return 2;
    }
    const auto new_entries =
        ebs::stats::parseBenchResults(new_text, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "diff_metrics: %s: %s\n", new_path,
                     error.c_str());
        return 2;
    }

    ebs::stats::DiffReport report;
    try {
        report = ebs::stats::diffMetrics(old_entries, new_entries, options);
    } catch (const std::invalid_argument &bad_option) {
        std::fprintf(stderr, "diff_metrics: %s\n", bad_option.what());
        return 2;
    }

    if (report.compared_values == 0) {
        // A gate that compared nothing proves nothing: an empty or
        // structurally mismatched baseline must not read as a pass.
        std::fprintf(stderr,
                     "diff_metrics: no overlapping metric values between "
                     "%s and %s — empty or mismatched baseline?\n",
                     old_path, new_path);
        return 2;
    }

    if (!quiet) {
        std::printf("diff_metrics: %d metric values compared "
                    "(abs tol %.3g, rel tol %.3g)\n",
                    report.compared_values, options.abs_tol,
                    options.rel_tol);
        for (const auto &delta : report.regressions)
            printDelta("REGRESSION", delta);
        for (const auto &delta : report.improvements)
            printDelta("improvement", delta);
        for (const auto &name : report.missing_cases)
            std::printf("  missing in new: %s\n", name.c_str());
        for (const auto &name : report.missing_metrics)
            std::printf("  missing metric in new: %s\n", name.c_str());
        for (const auto &name : report.new_cases)
            std::printf("  new-only case: %s\n", name.c_str());
    }

    if (!report.ok) {
        std::printf("diff_metrics: FAIL (%zu regressions, "
                    "%zu improvements, %zu missing)\n",
                    report.regressions.size(), report.improvements.size(),
                    report.missing_cases.size() +
                        report.missing_metrics.size());
        return 1;
    }
    std::printf("diff_metrics: OK (%zu improvements, %zu new cases)\n",
                report.improvements.size(), report.new_cases.size());
    return 0;
}
