#include "core/vla.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "plan/controller.h"
#include "sim/clock.h"
#include "sim/rng.h"

namespace ebs::core {

VlaProfile
VlaProfile::rt2()
{
    VlaProfile p;
    p.name = "RT-2 (55B VLA)";
    p.tick_latency_mean_s = 0.33; // ~3 Hz control
    p.primitive_quality = 0.96;
    p.horizon_decay = 0.86;
    return p;
}

VlaProfile
VlaProfile::octo()
{
    VlaProfile p;
    p.name = "Octo (93M policy)";
    p.tick_latency_mean_s = 0.10;
    p.primitive_quality = 0.92;
    p.horizon_decay = 0.82;
    return p;
}

VlaProfile
VlaProfile::diffusionPolicy()
{
    VlaProfile p;
    p.name = "Diffusion Policy";
    p.tick_latency_mean_s = 0.15; // DDIM-accelerated sampling
    p.primitive_quality = 0.94;
    p.horizon_decay = 0.80;
    return p;
}

namespace {

/**
 * Reject a profile that would turn into NaN or negative simulated time or
 * a silently clamped quality, naming the field: latencies that feed
 * Rng::lognormal finite and > 0, the latency jitter and per-cell motion
 * time finite and >= 0, and the three probabilities in [0, 1].
 */
void
validate(const VlaProfile &profile)
{
    // "VlaProfile::actuation_s [RT-2 (55B VLA)] must be ..."
    const auto require = [&](bool ok, const char *member, const char *rule,
                             double value) {
        if (!ok)
            throw std::invalid_argument(
                std::string("VlaProfile::") + member + " [" + profile.name +
                "] must be " + rule + ", got " + std::to_string(value));
    };
    const std::pair<const char *, double> positive[] = {
        {"tick_latency_mean_s", profile.tick_latency_mean_s},
        {"actuation_s", profile.actuation_s}};
    for (const auto &[member, value] : positive)
        require(std::isfinite(value) && value > 0.0, member,
                "finite and > 0", value);
    const std::pair<const char *, double> nonnegative[] = {
        {"tick_latency_cv", profile.tick_latency_cv},
        {"move_per_cell_s", profile.move_per_cell_s}};
    for (const auto &[member, value] : nonnegative)
        require(std::isfinite(value) && value >= 0.0, member,
                "finite and >= 0", value);
    const std::pair<const char *, double> probabilities[] = {
        {"primitive_quality", profile.primitive_quality},
        {"horizon_decay", profile.horizon_decay},
        {"out_of_sight_follow", profile.out_of_sight_follow}};
    for (const auto &[member, p] : probabilities)
        require(p >= 0.0 && p <= 1.0, member, "in [0, 1]", p); // NaN fails
}

} // namespace

EpisodeResult
runEndToEnd(env::Environment &environment, const VlaProfile &profile,
            const EpisodeOptions &options)
{
    validate(profile);
    sim::Rng rng = sim::Rng(options.seed).fork(500);
    sim::SimClock clock;
    stats::LatencyRecorder recorder;

    const int ticks = options.max_steps_override > 0
                          ? options.max_steps_override
                          : environment.task().maxSteps() * 6;
    const int agent_id = 0;
    bool success = false;
    int tick = 0;

    for (; tick < ticks; ++tick) {
        environment.beginStep();

        // One forward pass: observation in, primitive out. The network's
        // latency is the whole "cognition" budget of this paradigm.
        recorder.record(stats::ModuleKind::Planning,
                        rng.lognormal(profile.tick_latency_mean_s,
                                      profile.tick_latency_cv));

        // The behavior the policy is imitating: next primitive of the
        // compiled oracle plan, recompiled each tick from the live state.
        const auto useful = environment.usefulSubgoals(agent_id);
        if (useful.empty()) {
            clock.advance(recorder.grandTotal() - clock.now());
            if (environment.task().satisfied(environment.world())) {
                success = true;
                break;
            }
            continue;
        }
        const env::Subgoal &goal = useful.front();

        // A reactive policy only pursues goals it can see: if the next
        // objective is in another room, there is no visual affordance to
        // imitate and the policy usually drifts.
        bool goal_visible = true;
        const env::ObjectId anchor =
            goal.target != env::kNoObject ? goal.target : goal.dest_obj;
        if (anchor != env::kNoObject) {
            const env::Vec2i goal_pos =
                environment.world().effectivePos(anchor);
            const env::Vec2i self =
                environment.world().agent(agent_id).pos;
            goal_visible = environment.world().grid().room(goal_pos) ==
                           environment.world().grid().room(self);
        }

        const auto compiled =
            plan::compileSubgoal(environment, agent_id, goal);
        if (!compiled.feasible || compiled.prims.empty()) {
            clock.advance(recorder.grandTotal() - clock.now());
            continue;
        }

        // Horizon-dependent competence: deep remaining plans are exactly
        // what end-to-end policies fail to hold together; out-of-sight
        // objectives are nearly out of distribution entirely.
        const double depth =
            static_cast<double>(compiled.prims.size()) / 5.0;
        double quality = profile.primitive_quality *
                         std::pow(profile.horizon_decay, depth);
        if (!goal_visible)
            quality *= profile.out_of_sight_follow;

        env::Primitive prim = compiled.prims.front();
        if (!rng.bernoulli(std::clamp(quality, 0.0, 1.0))) {
            // Wrong action: drift to a random neighbor or stall.
            const auto neighbors = environment.world().grid().neighbors(
                environment.world().agent(agent_id).pos);
            if (!neighbors.empty() && rng.bernoulli(0.6)) {
                prim = env::Primitive{};
                prim.op = env::PrimOp::MoveStep;
                prim.dest = neighbors[rng.pickIndex(neighbors.size())];
            } else {
                prim = env::Primitive{};
                prim.op = env::PrimOp::Wait;
            }
        }

        (void)environment.applyPrimitive(agent_id, prim);
        if (prim.op == env::PrimOp::MoveStep)
            recorder.record(stats::ModuleKind::Execution,
                            profile.move_per_cell_s);
        else if (prim.op != env::PrimOp::Wait)
            recorder.record(stats::ModuleKind::Execution,
                            rng.lognormal(profile.actuation_s, 0.3));

        clock.advance(recorder.grandTotal() - clock.now());
        if (environment.task().satisfied(environment.world())) {
            success = true;
            ++tick;
            break;
        }
    }

    EpisodeResult result;
    result.success = success;
    result.steps = success ? tick : ticks;
    result.sim_seconds = clock.now();
    result.final_progress =
        environment.task().progress(environment.world());
    result.latency = recorder;
    return result;
}

} // namespace ebs::core
