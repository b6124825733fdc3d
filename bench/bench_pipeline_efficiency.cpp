/**
 * @file
 * Reproduces the paper's Sec. V-D pipeline-efficiency analysis on CoELA:
 * the fraction of pre-generated messages that actually matter (~20%),
 * sequential vs. parallel per-step latency, and the two inter-module
 * optimizations the paper recommends — planning-guided multi-step
 * execution (Rec. 7) and planning-then-communication (Rec. 8).
 */

#include <vector>

#include "stats/table.h"
#include "suite.h"

namespace {

int
run(ebs::bench::SuiteContext &ctx)
{
    using namespace ebs;
    const int kSeeds = ctx.seedCount(20);
    const auto &spec = workloads::workload("CoELA");
    const auto difficulty = env::Difficulty::Medium;

    ctx.printf("=== Sec. V-D: modular pipeline efficiency (CoELA, "
                "%d seeds) ===\n\n",
                kSeeds);

    // All five pipeline variants fan out as one batch.
    struct Case
    {
        const char *label;
        core::PipelineOptions pipeline;
    };
    std::vector<Case> cases;
    cases.push_back({"sequential baseline", {}});
    {
        core::PipelineOptions parallel;
        parallel.parallel_agents = true;
        cases.push_back({"parallel agent pipelines", parallel});
    }
    {
        core::PipelineOptions guided;
        guided.plan_every_k = 3;
        cases.push_back({"plan-guided multi-step (Rec. 7, k=3)", guided});
    }
    {
        core::PipelineOptions on_demand;
        on_demand.comm_on_demand = true;
        cases.push_back({"planning-then-communication (Rec. 8)", on_demand});
    }
    {
        core::PipelineOptions combined;
        combined.plan_every_k = 3;
        combined.comm_on_demand = true;
        combined.parallel_agents = true;
        cases.push_back({"all three combined", combined});
    }
    {
        core::PipelineOptions speculative;
        speculative.speculative_execute = true;
        cases.push_back({"speculative execute", speculative});
    }

    std::vector<runner::RunVariant> variants;
    for (const auto &c : cases) {
        runner::RunVariant v;
        v.workload = &spec;
        v.config = spec.config;
        v.difficulty = difficulty;
        v.seeds = kSeeds;
        v.pipeline = c.pipeline;
        variants.push_back(std::move(v));
    }
    const auto results = ctx.runAveragedMany(variants);

    const auto &base = results.front();
    ctx.printf("Message utility: %.0f of %.0f generated messages per task "
                "carried information (%.1f%%; paper: ~20%%)\n\n",
                base.msgs_useful, base.msgs_generated,
                base.msgs_useful / base.msgs_generated * 100.0);
    ctx.emitScalarMetric("sequential baseline", "message_utility",
                            base.msgs_useful / base.msgs_generated);

    stats::Table table({"pipeline variant", "success", "steps", "s/step",
                        "runtime (min)", "msgs/task"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &r = results[i];
        table.addRow({cases[i].label, stats::Table::pct(r.success_rate, 0),
                      stats::Table::num(r.avg_steps, 1),
                      stats::Table::num(r.avg_step_latency_s, 1),
                      stats::Table::num(r.avg_runtime_min, 1),
                      stats::Table::num(r.msgs_generated, 0)});
        ctx.emitMetric(cases[i].label, r);
    }

    // Speculation must not perturb paper metrics: the speculative variant
    // is the sequential baseline with a different execute-phase engine,
    // so any drift is a determinism bug, not a measurement.
    const auto &spec_case = results.back();
    if (spec_case.success_rate != base.success_rate ||
        spec_case.avg_steps != base.avg_steps ||
        spec_case.avg_step_latency_s != base.avg_step_latency_s) {
        ctx.eprintf("pipeline efficiency: speculative execute diverged "
                    "from the sequential baseline\n");
        return 1;
    }
    ctx.emitSpeculativeMetrics("speculative execute", spec_case);

    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("Expected shape: parallel pipelines cut wall-clock without\n"
                "changing work; Rec. 7 removes per-action replanning; Rec. 8\n"
                "eliminates most pre-generated messages — all with success\n"
                "held roughly constant (paper Takeaway 6).\n");
    return 0;
}

} // namespace

EBS_BENCH_SUITE("bench_pipeline_efficiency",
                "Sec. V-D: CoELA pipeline-efficiency variants (parallel, "
                "plan-guided, comm-on-demand, speculative)",
                run);
