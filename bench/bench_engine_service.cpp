/**
 * @file
 * Engine-service batching + serving bench (Recommendation 1 at system
 * scope): runs multi-agent workloads through the shared engine service
 * with batch assembly on and reports what cross-agent batching buys —
 * batch occupancy (completions per assembled batch) and the modeled
 * latency of batched versus sequential inference — plus the additional
 * occupancy available when concurrently running episodes on the
 * EpisodeRunner pool merge their per-step batches (the deterministic
 * post-join fold).
 *
 * The open-loop service changes no simulated result (responses are
 * sampled from the same per-agent streams either way), so those rows
 * quantify pure scheduling headroom: occupancy > 1 with batched latency
 * <= baseline means the fleet's inference bill shrinks at zero accuracy
 * cost.
 *
 * Refinements on top of the open-loop modeled numbers:
 *  - the *charged* ablation re-runs each workload with
 *    `PipelineOptions::batch_llm_calls` on, where the episode clock
 *    pays `llm::jointBatchTime` per (phase, backend) batch instead of
 *    sequential sampled latencies — Rec. 1 end-to-end, visible in
 *    s/step (`batched_s_per_step`, `batch_charge_saved_pct`);
 *  - the *queued* ablation additionally runs closed-loop: the service
 *    simulates finite-capacity backends (llm/backend_queue.h) and
 *    charges FIFO queueing + iteration-boundary admission delay back to
 *    the episode clock (`queue_delay_share`);
 *  - the cross-episode fold is additionally reported under a finite
 *    admission window derived from each workload's measured batch
 *    arrival rate (override with --window <seconds>), a conservative
 *    counterpoint to the lockstep-optimistic merge;
 *  - a multi-tenant offered-load sweep replays every episode's batch
 *    log through one shared fleet of finite-capacity backend queues at
 *    several episode arrival rates around the analytic saturation rate,
 *    reporting p50/p99 episode latency (base episode time + charged
 *    queueing delay), queue-delay share, and backend occupancy per
 *    level. The replay is a pure post-join fold over per-episode logs
 *    sorted by (arrival instant, backend id, submission index), so —
 *    like every number this bench prints — it is bit-identical at any
 *    EBS_JOBS.
 */

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "llm/backend_queue.h"
#include "llm/engine_service.h"
#include "stats/aggregate.h"
#include "stats/table.h"
#include "suite.h"

namespace {

using namespace ebs;

/** Outcome of replaying the pooled logs at one offered-load level. */
struct SweepPoint
{
    double level = 0.0;        ///< offered load as a multiple of lambda*
    double rate_eps = 0.0;     ///< episode arrival rate (episodes/s)
    std::size_t tenants = 0;   ///< replayed episode arrivals
    double total_delay_s = 0.0;
    double mean_delay_s = 0.0; ///< charged delay per tenant episode
    double p50_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double delay_share = 0.0;  ///< delay / (base + delay) episode time
    double occupancy = 0.0;    ///< busy slot-s / available slot-s
};

/**
 * Replay the pooled per-episode batch logs through a fresh fleet of
 * finite-capacity backend queues at a sustained episode arrival rate:
 * tenant t arrives at t / rate and replays pooled episode t mod N, with
 * enough tenants (rate x horizon) that the offered load is sustained
 * over the whole horizon — a handful of episodes alone could never
 * saturate a many-slot backend, no matter the rate.
 *
 * Pure function of its inputs: submissions run in (arrival instant,
 * backend id, pooled submission index) order, so the schedule never
 * depends on worker count or host timing.
 */
SweepPoint
replayAtRate(double level, double rate_eps, double horizon_s,
             const std::vector<std::vector<llm::BatchRecord>> &pool_logs,
             const std::vector<double> &pool_sim_s,
             const std::map<llm::BackendId, llm::ModelProfile> &profiles)
{
    SweepPoint point;
    point.level = level;
    point.rate_eps = rate_eps;
    const std::size_t pool_n = pool_logs.size();
    std::size_t tenants =
        static_cast<std::size_t>(std::ceil(rate_eps * horizon_s));
    tenants = std::max(tenants, pool_n);
    // Runaway guard: the replay is cheap but not free; 4000 episode
    // arrivals are plenty to show saturation at any realistic rate.
    tenants = std::min<std::size_t>(tenants, 4000);
    point.tenants = tenants;

    struct Submission
    {
        double arrival_s = 0.0;
        llm::BackendId backend = 0;
        std::size_t order = 0; ///< pooled submission index (tie-break)
        std::size_t tenant = 0;
        const llm::BatchRecord *record = nullptr;
    };
    std::vector<Submission> submissions;
    for (std::size_t t = 0; t < tenants; ++t) {
        const double start_s = static_cast<double>(t) / rate_eps;
        for (const auto &record : pool_logs[t % pool_n]) {
            Submission s;
            s.arrival_s = start_s + record.sim_time_s;
            s.backend = record.backend;
            s.order = submissions.size();
            s.tenant = t;
            s.record = &record;
            submissions.push_back(s);
        }
    }
    std::sort(submissions.begin(), submissions.end(),
              [](const Submission &a, const Submission &b) {
                  if (a.arrival_s != b.arrival_s)
                      return a.arrival_s < b.arrival_s;
                  if (a.backend != b.backend)
                      return a.backend < b.backend;
                  return a.order < b.order;
              });

    llm::BackendQueueModel model;
    for (const auto &[backend, profile] : profiles)
        model.ensureBackend(backend, profile);

    std::vector<double> tenant_delay_s(tenants, 0.0);
    for (const auto &s : submissions) {
        llm::BatchRecord shifted = *s.record;
        shifted.sim_time_s = s.arrival_s;
        const auto admission = model.submit(shifted);
        tenant_delay_s[s.tenant] += admission.queue_delay_s;
        point.total_delay_s += admission.queue_delay_s;
    }
    point.mean_delay_s = point.total_delay_s / double(tenants);

    std::vector<double> latencies;
    latencies.reserve(tenants);
    double base_total = 0.0;
    for (std::size_t t = 0; t < tenants; ++t) {
        latencies.push_back(pool_sim_s[t % pool_n] + tenant_delay_s[t]);
        base_total += pool_sim_s[t % pool_n];
    }
    point.p50_latency_s = stats::percentile(latencies, 50.0);
    point.p99_latency_s = stats::percentile(latencies, 99.0);
    const double total = base_total + point.total_delay_s;
    point.delay_share = total > 0.0 ? point.total_delay_s / total : 0.0;

    double busy_s = 0.0, capacity_s = 0.0;
    for (const auto &[backend, queue] : model.queues()) {
        const auto &qs = queue.stats();
        if (qs.requests == 0)
            continue;
        busy_s += qs.busy_slot_s;
        capacity_s += queue.config().slots *
                      (qs.last_complete_s - qs.first_arrival_s);
    }
    point.occupancy = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
    return point;
}

/**
 * Parse the one CLI flag: --window <seconds> (or --window=<seconds>)
 * replaces the per-workload derived admission window. Leaves *out at 0
 * when absent; returns false (after printing usage to the suite's
 * stderr sink) on malformed input — the suite then exits 2.
 */
bool
parseWindowOverride(ebs::bench::SuiteContext &ctx, double *out)
{
    *out = 0.0;
    const auto &args = ctx.args();
    const auto parse = [&](const std::string &text) {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !(v > 0.0)) {
            ctx.eprintf("bench_engine_service: --window expects a "
                        "positive number of simulated seconds, got "
                        "'%s'\n",
                        text.c_str());
            return -1.0;
        }
        return v;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        double v = 0.0;
        if (arg.rfind("--window=", 0) == 0) {
            v = parse(arg.substr(9));
        } else if (arg == "--window") {
            if (i + 1 >= args.size()) {
                ctx.eprintf("bench_engine_service: --window requires a "
                            "value\n");
                return false;
            }
            v = parse(args[i + 1]);
        } else {
            continue;
        }
        if (v < 0.0)
            return false;
        *out = v;
        return true;
    }
    return true;
}

int
run(ebs::bench::SuiteContext &ctx)
{
    double window_override = 0.0;
    if (!parseWindowOverride(ctx, &window_override))
        return 2;
    const int kSeeds = ctx.seedCount(12);
    const auto difficulty = env::Difficulty::Medium;

    ctx.printf("=== Shared LLM engine service: cross-agent batching and "
               "closed-loop serving ===\n\n");
    // Seed count is part of the deterministic configuration; the runner
    // thread count is host state and must stay off the gated stdout so
    // the output is byte-identical at any EBS_JOBS.
    ctx.printf("%d seeds per workload\n\n", kSeeds);
    ctx.eprintf("%d runner threads\n", ctx.runner().jobs());

    const char *names[] = {"EmbodiedGPT", "CoELA", "MindAgent", "CMAS",
                           "DMAS"};

    stats::Table table({"workload", "agents", "success", "batches/ep",
                        "occupancy", "x-ep occ", "x-ep occ@W",
                        "LLM s/ep (seq)", "LLM s/ep (batched)", "saved",
                        "s/step", "s/step charged", "chg saved",
                        "q-share"});

    // Pooled per-episode material of the multi-tenant offered-load
    // sweep: base episode durations, batch logs, and the profile of
    // every backend the workloads' agents use (to rebuild queue
    // configs).
    std::vector<double> pooled_sim_s;
    std::vector<std::vector<llm::BatchRecord>> pooled_logs;
    std::map<llm::BackendId, llm::ModelProfile> profiles;

    for (const char *name : names) {
        const auto &spec = workloads::workload(name);

        std::vector<runner::EpisodeJob> jobs;
        for (int seed = 1; seed <= kSeeds; ++seed) {
            runner::EpisodeJob job;
            job.workload = &spec;
            job.config = spec.config;
            job.difficulty = difficulty;
            job.seed = runner::episodeSeed(seed);
            jobs.push_back(std::move(job));
        }
        const auto episodes = ctx.run(jobs);
        const auto run_stats = runner::foldEpisodes(episodes);

        // The charged ablation: same seeds, same responses, but the
        // episode clock pays jointBatchTime per batch (Rec. 1
        // end-to-end). Only sim_seconds — and thus s/step — moves.
        std::vector<runner::EpisodeJob> charged_jobs = jobs;
        for (auto &job : charged_jobs)
            job.pipeline.batch_llm_calls = true;
        const auto charged_episodes = ctx.run(std::move(charged_jobs));
        const auto charged_stats = runner::foldEpisodes(charged_episodes);

        // The queued (closed-loop) ablation: finite-capacity backends
        // with profile-derived slot counts and KV budgets; the clock
        // additionally pays FIFO queueing + iteration-boundary
        // admission delay per flushed batch group.
        llm::LlmEngineService queued_service(
            llm::ServiceConfig{.queue = true});
        std::vector<runner::EpisodeJob> queued_jobs = jobs;
        for (auto &job : queued_jobs) {
            job.engine_service = &queued_service;
            job.pipeline.batch_llm_calls = true;
        }
        const auto queued_episodes = ctx.run(std::move(queued_jobs));
        const auto queued_stats = runner::foldEpisodes(queued_episodes);

        // Within-episode (cross-agent) batching: fold per-episode logs.
        llm::BatchStats per_episode;
        std::vector<std::vector<llm::BatchRecord>> logs;
        logs.reserve(episodes.size());
        for (const auto &episode : episodes) {
            per_episode.merge(llm::foldBatchLog(episode.llm_batches));
            logs.push_back(episode.llm_batches);
        }

        /*
         * Backend admission window of the conservative cross-episode
         * merge: how long a batch may wait for co-batching arrivals
         * from other episodes. Derived from the workload's own measured
         * traffic — the mean within-episode gap between flushed batches
         * (total simulated seconds / batch count); a batch waits at
         * most two mean inter-arrival gaps, long enough to admit
         * same-phase neighbors of loosely aligned episodes, short
         * enough to refuse lockstep-optimistic merges of episodes a
         * step apart. --window replaces the derived value.
         */
        const double mean_gap_s =
            per_episode.batches > 0
                ? run_stats.sim_seconds / double(per_episode.batches)
                : 0.0;
        const double derived_window_s = 2.0 * mean_gap_s;
        const double window_s =
            window_override > 0.0 ? window_override : derived_window_s;
        ctx.printf("%s admission window: %lld batches over %.1f sim-s "
                   "-> mean gap %.2f s; window = %s%.2f s\n",
                   spec.name.c_str(), per_episode.batches,
                   run_stats.sim_seconds, mean_gap_s,
                   window_override > 0.0 ? "override " : "2 x gap = ",
                   window_s);

        // Cross-episode merge of the fan-out's concurrent seeds:
        // lockstep (same step+phase merge unconditionally) and windowed
        // (only arrivals within the admission window co-batch).
        const auto cross = llm::foldCrossEpisodeBatches(logs);
        const auto windowed =
            llm::foldCrossEpisodeBatches(logs, window_s);

        const double n = episodes.empty() ? 1.0 : double(episodes.size());
        const double charge_saved = ctx.emitChargedMetrics(
            "engine-service " + spec.name, run_stats.avg_step_latency_s,
            charged_stats.avg_step_latency_s);
        table.addRow(
            {spec.name, std::to_string(spec.default_agents),
             stats::Table::pct(run_stats.success_rate, 0),
             stats::Table::num(double(per_episode.batches) / n, 1),
             stats::Table::num(per_episode.occupancy(), 2),
             stats::Table::num(cross.occupancy(), 2),
             stats::Table::num(windowed.occupancy(), 2),
             stats::Table::num(per_episode.baseline_s / n, 1),
             stats::Table::num(per_episode.batched_s / n, 1),
             stats::Table::pct(per_episode.savedFraction(), 0),
             stats::Table::num(run_stats.avg_step_latency_s, 1),
             stats::Table::num(charged_stats.avg_step_latency_s, 1),
             stats::Table::pct(charge_saved, 0),
             stats::Table::pct(queued_stats.queueDelayShare(), 1)});

        ctx.emitMetric("engine-service " + spec.name, run_stats);
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "batch_occupancy", per_episode.occupancy());
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "cross_episode_occupancy",
                             cross.occupancy());
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "latency_saved_pct",
                             100.0 * per_episode.savedFraction());
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "cross_episode_saved_pct",
                             100.0 * cross.savedFraction());
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "cross_episode_windowed_occupancy",
                             windowed.occupancy());
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "cross_episode_windowed_saved_pct",
                             100.0 * windowed.savedFraction());
        ctx.emitScalarMetric("engine-service " + spec.name,
                             "queue_delay_share",
                             queued_stats.queueDelayShare());

        // Charging never perturbs behavior: same steps, same responses,
        // never a slower clock.
        for (std::size_t i = 0; i < episodes.size(); ++i) {
            if (charged_episodes[i].steps != episodes[i].steps ||
                charged_episodes[i].success != episodes[i].success ||
                charged_episodes[i].sim_seconds >
                    episodes[i].sim_seconds * (1.0 + 1e-12)) {
                ctx.eprintf("charged batching perturbed %s episode %zu\n",
                            spec.name.c_str(), i);
                return 1;
            }
        }

        // Queueing charges delay — a slower clock than the charged run
        // is expected — but must never change steps or outcomes, and
        // the charged delay can never be negative.
        for (std::size_t i = 0; i < episodes.size(); ++i) {
            if (queued_episodes[i].steps != episodes[i].steps ||
                queued_episodes[i].success != episodes[i].success ||
                queued_episodes[i].sim_seconds <
                    charged_episodes[i].sim_seconds * (1.0 - 1e-12)) {
                ctx.eprintf("queued serving perturbed %s episode %zu\n",
                            spec.name.c_str(), i);
                return 1;
            }
        }

        // Pool this workload's open-loop episodes as sweep tenants.
        for (const auto &episode : episodes) {
            pooled_sim_s.push_back(episode.sim_seconds);
            pooled_logs.push_back(episode.llm_batches);
        }
        for (const auto *model : {&spec.config.planner_model,
                                  &spec.config.comm_model,
                                  &spec.config.reflect_model})
            profiles.emplace(llm::backendId(*model), *model);
    }

    ctx.printf("\n%s\n", table.render().c_str());
    ctx.printf(
        "occupancy      completions per assembled batch (same step+phase,\n"
        "               same backend, across the team's agents)\n"
        "x-ep occ       occupancy when the concurrently running episodes\n"
        "               of the fan-out merge their per-step batches in\n"
        "               lockstep; @W admits only arrivals within the\n"
        "               derived (or --window) admission window printed\n"
        "               above (conservative)\n"
        "LLM s/ep       modeled inference seconds per episode, sequential\n"
        "               vs. batched (joint prefill + longest decode + one\n"
        "               RTT; never worse than sequential)\n"
        "s/step charged episode s/step with batch_llm_calls charging\n"
        "               jointBatchTime to the simulated clock (Rec. 1\n"
        "               end-to-end, not just modeled)\n"
        "q-share        charged queueing + admission delay as a share of\n"
        "               simulated episode time in the closed-loop run\n"
        "               (finite slots + KV budget per backend)\n\n");

    // ---- Multi-tenant offered-load sweep over the pooled logs ----
    //
    // Analytic saturation: a backend serving its share of one average
    // episode's traffic occupies `busy` slot-seconds; it can sustain at
    // most slots / busy episode arrivals per second. The fleet
    // saturates at the bottleneck backend's rate (lambda*).
    const double n_eps = double(pooled_sim_s.size());
    std::map<llm::BackendId, double> busy_per_episode;
    for (const auto &log : pooled_logs)
        for (const auto &record : log)
            busy_per_episode[record.backend] +=
                record.requests * record.batched_s / n_eps;
    double lambda_star = 0.0;
    llm::BackendId bottleneck = 0;
    for (const auto &[backend, busy] : busy_per_episode) {
        if (busy <= 0.0)
            continue;
        const auto config = llm::defaultQueueConfig(profiles.at(backend));
        const double rate = config.slots / busy;
        if (lambda_star == 0.0 || rate < lambda_star) {
            lambda_star = rate;
            bottleneck = backend;
        }
    }
    if (lambda_star <= 0.0) {
        ctx.eprintf("no backend traffic to sweep\n");
        return 1;
    }
    // Sustained-load horizon: arrivals keep coming for several times
    // the longest pooled episode, so every level reaches steady state
    // instead of measuring the startup transient of a handful of
    // episodes.
    double max_sim_s = 0.0;
    for (const double s : pooled_sim_s)
        max_sim_s = std::max(max_sim_s, s);
    const double horizon_s = 3.0 * max_sim_s;

    ctx.printf("=== Offered-load sweep: %zu pooled episodes tiled over "
               "a %.0f sim-s horizon vs finite-capacity backends "
               "===\n\n",
               pooled_sim_s.size(), horizon_s);
    ctx.printf("bottleneck backend sustains %.4f episodes/s "
               "(%.0f busy slot-s per episode over %d slots); tenant t "
               "arrives at t / rate and replays pooled episode t mod "
               "%zu\n\n",
               lambda_star, busy_per_episode[bottleneck],
               llm::defaultQueueConfig(profiles.at(bottleneck)).slots,
               pooled_sim_s.size());

    const double levels[] = {0.5, 1.0, 2.0, 4.0};
    stats::Table sweep_table({"offered load", "episodes/s", "tenants",
                              "delay/ep", "p50 ep lat", "p99 ep lat",
                              "q-delay share", "occupancy"});
    std::vector<SweepPoint> points;
    for (const double level : levels)
        points.push_back(replayAtRate(level, level * lambda_star,
                                      horizon_s, pooled_logs,
                                      pooled_sim_s, profiles));

    bool monotone = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        char level_label[32];
        std::snprintf(level_label, sizeof(level_label), "%.2fx sat",
                      p.level);
        sweep_table.addRow({level_label,
                            stats::Table::num(p.rate_eps, 4),
                            std::to_string(p.tenants),
                            stats::Table::num(p.mean_delay_s, 1),
                            stats::Table::num(p.p50_latency_s, 1),
                            stats::Table::num(p.p99_latency_s, 1),
                            stats::Table::pct(p.delay_share, 1),
                            stats::Table::pct(p.occupancy, 1)});
        const std::string bench_case =
            "engine-service serving " + std::string(level_label);
        ctx.emitScalarMetric(bench_case, "p50_episode_latency_s",
                             p.p50_latency_s);
        ctx.emitScalarMetric(bench_case, "p99_episode_latency_s",
                             p.p99_latency_s);
        ctx.emitScalarMetric(bench_case, "queue_delay_share",
                             p.delay_share);
        ctx.emitScalarMetric(bench_case, "backend_occupancy",
                             p.occupancy);
        if (i > 0 && p.mean_delay_s <= points[i - 1].mean_delay_s)
            monotone = false;
    }
    ctx.printf("%s\n", sweep_table.render().c_str());
    ctx.printf("delay/ep        charged queueing + admission delay per\n"
               "                tenant episode (simulated s)\n"
               "p50/p99 ep lat  episode latency percentile (simulated s):\n"
               "                base episode time + charged queueing and\n"
               "                admission delay at that arrival rate\n"
               "q-delay share   summed queueing delay over summed episode\n"
               "                latency\n"
               "occupancy       busy slot-seconds over available\n"
               "                slot-seconds across backends\n");

    // Max sustainable throughput: the highest swept rate at which the
    // queue stays subcritical (delay share below half); at least the
    // analytic bottleneck rate when every swept level saturates.
    double max_sustainable = 0.0;
    for (const auto &p : points)
        if (p.delay_share < 0.5 && p.rate_eps > max_sustainable)
            max_sustainable = p.rate_eps;
    if (max_sustainable == 0.0)
        max_sustainable = points.front().rate_eps;
    ctx.emitScalarMetric("engine-service serving", "max_sustainable_eps",
                         max_sustainable);
    ctx.printf("max sustainable rate (delay share < 50%%): %.4f "
               "episodes/s\n",
               max_sustainable);

    // Queueing delay must grow strictly with offered load — the
    // closed-loop model's defining property. A flat or shrinking delay
    // means the queue is not actually contended.
    if (!monotone) {
        std::string detail;
        for (const auto &p : points) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), " %.2fx=%.3fs", p.level,
                          p.mean_delay_s);
            detail += buf;
        }
        ctx.eprintf("charged queueing delay per episode is not "
                    "strictly increasing in offered load:%s\n",
                    detail.c_str());
        return 1;
    }
    return 0;
}

} // namespace

EBS_BENCH_SUITE("bench_engine_service",
                "Rec. 1 at system scope: cross-agent batching, charged "
                "and closed-loop queued ablations, and a multi-tenant "
                "offered-load sweep",
                run);
