/**
 * @file
 * Reproduces paper Fig. 7 (multi-agent scalability): average task success
 * rate and end-to-end latency for a centralized system (MindAgent) and two
 * decentralized systems (CoELA, COMBO) across 2-12 agents and three task
 * difficulties. Also reports LLM-call/token scaling, which the paper
 * describes as linear (centralized) vs. quadratic (decentralized).
 */

#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "stats/csv.h"
#include "stats/table.h"
#include "suite.h"

namespace {

/** Usage: bench_fig7_scalability [csv_output_dir] */
int
run(ebs::bench::SuiteContext &ctx)
{
    using namespace ebs;
    std::ofstream csv_file;
    std::unique_ptr<stats::CsvWriter> csv;
    if (!ctx.args().empty()) {
        csv_file.open(ctx.args()[0] + "/fig7_scalability.csv");
        csv = std::make_unique<stats::CsvWriter>(
            csv_file, std::vector<std::string>{
                          "system", "paradigm", "difficulty", "agents",
                          "success", "latency_min", "llm_calls",
                          "tokens_k"});
    }
    const int kSeeds = ctx.seedCount(12);
    const char *systems[] = {"MindAgent", "CoELA", "COMBO"};
    const int agent_counts[] = {2, 4, 6, 8, 10, 12};
    const env::Difficulty difficulties[] = {env::Difficulty::Easy,
                                            env::Difficulty::Medium,
                                            env::Difficulty::Hard};

    ctx.printf("=== Fig. 7: scalability across 2-12 agents "
                "(%d seeds) ===\n\n",
                kSeeds);

    // Three grids fan out as one batch, so their long 12-agent tails
    // overlap: the system × difficulty × team-size main grid, then the
    // medium-difficulty grid re-run twice for the two ablations below.
    std::vector<runner::RunVariant> variants;
    for (const char *name : systems) {
        const auto &spec = workloads::workload(name);
        for (const auto difficulty : difficulties) {
            for (const int n : agent_counts) {
                runner::RunVariant v;
                v.workload = &spec;
                v.config = spec.config;
                v.difficulty = difficulty;
                v.seeds = kSeeds;
                v.n_agents = n;
                variants.push_back(std::move(v));
            }
        }
    }
    const std::size_t main_count = variants.size();
    // Rec. 1 at scale: batch_llm_calls charging jointBatchTime to the
    // clock. Cross-agent batches grow with the team, so the charged
    // saving should widen with the agent count — batching is exactly the
    // lever the paper recommends against the multi-agent latency
    // explosion.
    core::PipelineOptions charged_pipeline;
    charged_pipeline.batch_llm_calls = true;
    // Speculative execute phase: the paper metrics must stay
    // bit-identical to the main grid (speculation is modeled on the
    // serial run), so its EBS_METRIC keys reuse the main grid's case
    // names and merge into the same rows; the guard below turns any
    // drift into a hard failure instead of a silently-merged wrong value.
    core::PipelineOptions spec_pipeline;
    spec_pipeline.speculative_execute = true;
    for (const auto &pipeline : {charged_pipeline, spec_pipeline}) {
        for (const char *name : systems) {
            const auto &spec = workloads::workload(name);
            for (const int n : agent_counts) {
                runner::RunVariant v;
                v.workload = &spec;
                v.config = spec.config;
                v.difficulty = env::Difficulty::Medium;
                v.seeds = kSeeds;
                v.n_agents = n;
                v.pipeline = pipeline;
                variants.push_back(std::move(v));
            }
        }
    }
    const auto results = ctx.runAveragedMany(variants);
    // Slices: the main grid, then the charged and speculative ablations.
    const runner::RunStats *charged = results.data() + main_count;
    const runner::RunStats *speculative =
        charged + std::size(systems) * std::size(agent_counts);

    std::size_t idx = 0;
    for (const char *name : systems) {
        const auto &spec = workloads::workload(name);
        ctx.printf("--- %s (%s) ---\n", name,
                    workloads::paradigmName(spec.paradigm));
        stats::Table table({"difficulty", "agents", "success",
                            "latency (min)", "LLM calls", "tokens (k)"});
        for (const auto difficulty : difficulties) {
            for (const int n : agent_counts) {
                const auto &r = results[idx++];
                table.addRow(
                    {env::difficultyName(difficulty), std::to_string(n),
                     stats::Table::pct(r.success_rate, 0),
                     stats::Table::num(r.avg_runtime_min, 1),
                     stats::Table::num(r.llmCallsPerEpisode(), 0),
                     stats::Table::num(r.tokensPerEpisode() / 1000.0, 0)});
                if (difficulty == env::Difficulty::Medium)
                    ctx.emitMetric(std::string(name) + " agents=" +
                                          std::to_string(n),
                                      r);
                if (csv)
                    csv->row({name, workloads::paradigmName(spec.paradigm),
                              env::difficultyName(difficulty),
                              std::to_string(n),
                              stats::Table::num(r.success_rate, 3),
                              stats::Table::num(r.avg_runtime_min, 2),
                              stats::Table::num(r.llmCallsPerEpisode(), 1),
                              stats::Table::num(
                                  r.tokensPerEpisode() / 1000.0, 1)});
            }
        }
        ctx.printf("%s\n", table.render().c_str());
    }
    if (idx != main_count) {
        ctx.eprintf("fig7: consumed %zu of %zu results — the print loops "
                    "fell out of sync with the variant grid\n",
                    idx, main_count);
        return 1;
    }

    ctx.printf(
        "Expected shape (paper Takeaway 7): the centralized system's\n"
        "success drops sharply with more agents while its latency scales\n"
        "mildly (fewer LLM calls, linear); the decentralized systems'\n"
        "latency and token volume explode (quadratic dialogue) and their\n"
        "success rises then falls as collaboration efficiency degrades.\n");

    ctx.printf("=== Fig. 7 ablation: batched inference charged to the "
                "clock (Rec. 1, medium difficulty) ===\n\n");
    std::size_t charged_idx = 0;
    for (std::size_t s = 0; s < 3; ++s) {
        const char *name = systems[s];
        stats::Table batched_table(
            {"agents", "s/step", "s/step charged", "saved"});
        for (std::size_t k = 0; k < 6; ++k) {
            // Medium rows of system s in the main grid: the second
            // difficulty block of its 18-variant span.
            const auto &seq = results[s * 18 + 6 + k];
            const auto &chg = charged[charged_idx++];
            const std::string bench_case =
                std::string(name) + " agents=" +
                std::to_string(agent_counts[k]);
            const double saved = ctx.emitChargedMetrics(
                bench_case, seq.avg_step_latency_s,
                chg.avg_step_latency_s);
            batched_table.addRow(
                {std::to_string(agent_counts[k]),
                 stats::Table::num(seq.avg_step_latency_s, 1),
                 stats::Table::num(chg.avg_step_latency_s, 1),
                 stats::Table::pct(saved, 0)});
        }
        ctx.printf("--- %s ---\n%s\n", name,
                    batched_table.render().c_str());
    }

    ctx.printf("=== Fig. 7 ablation: speculative execute phase "
                "(medium difficulty) ===\n\n");
    std::size_t spec_idx = 0;
    for (std::size_t s = 0; s < 3; ++s) {
        const char *name = systems[s];
        stats::Table spec_table({"agents", "exec speedup", "conflict rate",
                                 "re-exec", "committed"});
        for (std::size_t k = 0; k < 6; ++k) {
            const auto &seq = results[s * 18 + 6 + k];
            const auto &spc = speculative[spec_idx++];
            if (spc.success_rate != seq.success_rate ||
                spc.avg_steps != seq.avg_steps ||
                spc.avg_step_latency_s != seq.avg_step_latency_s) {
                ctx.eprintf("fig7: speculative execute diverged from "
                            "the serial schedule (%s, %d agents)\n",
                            name, agent_counts[k]);
                return 1;
            }
            ctx.emitSpeculativeMetrics(std::string(name) + " agents=" +
                                              std::to_string(
                                                  agent_counts[k]),
                                          spc);
            spec_table.addRow(
                {std::to_string(agent_counts[k]),
                 stats::Table::num(spc.specExecSpeedup(), 2) + "x",
                 stats::Table::pct(spc.specConflictRate(), 0),
                 stats::Table::pct(spc.specReexecFraction(), 0),
                 std::to_string(spc.spec_exec.committed)});
        }
        ctx.printf("--- %s ---\n%s\n", name, spec_table.render().c_str());
    }

    // The shared-service summary covers the main grid only.
    ctx.emitSharedServiceSummary(
        "fig7 scalability fleet",
        std::span(results).first(main_count));
    return 0;
}

} // namespace

EBS_BENCH_SUITE("bench_fig7_scalability",
                "Fig. 7: multi-agent scalability across 2-12 agents, with "
                "charged-batching and speculative-execute ablations",
                run);
