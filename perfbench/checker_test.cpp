/**
 * @file
 * Tests of the benchmark's own output checker and of its determinism
 * premises. Plain executable: prints each failed expectation and exits
 * nonzero if any failed. Run it with `ctest` in the benchmark's build
 * directory, or directly.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "checker.h"
#include "scenario.h"

namespace {

using namespace ebs;
using namespace ebs::perfbench;

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("FAILED: %s\n", what);
    }
}

core::EpisodeResult
validResult()
{
    core::EpisodeResult result;
    result.success = true;
    result.steps = 12;
    result.sim_seconds = 345.5;
    result.llm.calls = 30;
    result.llm.tokens_in = 24000;
    result.llm.tokens_out = 2700;
    return result;
}

void
testInvariants()
{
    Outcome outcome;
    expect(outcome.record(validResult(), 20, false),
           "a valid episode passes");

    core::EpisodeResult nan = validResult();
    nan.sim_seconds = std::numeric_limits<double>::quiet_NaN();
    expect(!outcome.record(nan, 20, false), "NaN sim_seconds fails");

    core::EpisodeResult negative = validResult();
    negative.sim_seconds = -1.0;
    expect(!outcome.record(negative, 20, false),
           "negative sim_seconds fails");

    expect(!outcome.record(validResult(), 11, false),
           "steps over the budget fail");
    expect(!outcome.record(validResult(), 20, true),
           "a throwing episode fails");

    expect(outcome.attempted == 5 && outcome.failed == 4,
           "every failure is counted, none aborts");
    expect(std::fabs(outcome.failedFrac() - 0.8) < 1e-12,
           "failed_frac = failed / attempted");
}

void
testDigest()
{
    Digest a;
    Digest b;
    a.add(validResult());
    b.add(validResult());
    expect(a.value() == b.value(), "equal outputs give equal digests");

    core::EpisodeResult moved = validResult();
    moved.sim_seconds = std::nextafter(moved.sim_seconds, 1e9);
    Digest c;
    c.add(moved);
    expect(c.value() != a.value(), "a one-ulp sim_seconds change shows");

    // A wrong digest fails every episode of its set exactly once.
    Outcome outcome;
    core::EpisodeResult nan = validResult();
    nan.sim_seconds = std::numeric_limits<double>::quiet_NaN();
    outcome.record(validResult(), 20, false);
    const Outcome at_start = outcome;
    outcome.record(validResult(), 20, false);
    outcome.record(nan, 20, false);
    outcome.record(validResult(), 20, false);
    expect(outcome.settleSet(at_start, a.value(), a.value()) &&
               outcome.failed == 1,
           "a matching digest fails nothing more");
    expect(!outcome.settleSet(at_start, a.value(), c.value()),
           "a mismatching digest is reported");
    expect(outcome.attempted == 4 && outcome.failed == 3,
           "a wrong digest fails its set's episodes, each once");
}

std::uint64_t
digestOf(const Scenario &scenario, int threads, std::uint64_t seed,
         int rounds, Outcome &outcome)
{
    Services services(threads);
    Digest digest;
    runRounds(scenario, services, seed, 0, rounds, false,
              [&](const Episode &ep) {
                  outcome.record(*ep.result, ep.variant->step_budget,
                                 ep.error != nullptr);
                  digest.add(*ep.result);
              });
    return digest.value();
}

void
testPoolDigestIndependentOfThreads()
{
    const Scenario scenario = makeScenario("pipeline_opts");
    Outcome outcome;
    const std::uint64_t serial = digestOf(scenario, 1, 7, 2, outcome);
    const std::uint64_t pooled =
        digestOf(scenario, kPoolThreads, 7, 2, outcome);
    expect(serial == pooled,
           "pipeline_opts digest is the same at 1 thread and on a pool");
    expect(outcome.failed == 0, "pipeline_opts episodes are valid");
}

void
testReferenceDigests()
{
    // The set-up of every run checks these; a mismatch here means the
    // simulator's outputs moved and the recorded digests are stale.
    for (const std::string &name : scenarioNames()) {
        const Scenario scenario = makeScenario(name);
        Outcome outcome;
        const std::uint64_t got = digestOf(scenario, 1, kReferenceSeed,
                                           scenario.warmup_rounds, outcome);
        if (got != scenario.reference_digest)
            std::printf("%s: warm-up digest %016" PRIx64
                        ", recorded %016" PRIx64 "\n",
                        name.c_str(), got, scenario.reference_digest);
        expect(got == scenario.reference_digest,
               "warm-up digest equals the recorded one");
        expect(outcome.failed == 0, "warm-up episodes are valid");
    }
}

} // namespace

int
main()
{
    testInvariants();
    testDigest();
    testPoolDigestIndependentOfThreads();
    testReferenceDigests();
    std::printf("%s (%d failed expectations)\n",
                failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
}
