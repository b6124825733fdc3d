#ifndef EBS_CORE_VLA_H
#define EBS_CORE_VLA_H

#include <string>

#include "core/coordinator.h"
#include "core/episode.h"
#include "env/env.h"

namespace ebs::core {

/**
 * Performance/capability profile of an end-to-end vision-language-action
 * model (paper Fig. 1c and Sec. II-C: RT-2, Octo, Diffusion Policy...).
 *
 * An end-to-end system has no modular pipeline: one forward pass per
 * control tick maps the current observation directly to a primitive
 * action. Per-tick latency is low and constant, but competence decays with
 * the *horizon* of the behavior being executed — the reason the paper
 * reserves this paradigm for short-horizon tasks.
 */
struct VlaProfile
{
    std::string name;

    /** One forward pass (vision encode + action decode), seconds. */
    double tick_latency_mean_s = 0.3;
    double tick_latency_cv = 0.2;

    /** P(the emitted primitive is the right one) on a one-step horizon. */
    double primitive_quality = 0.95;

    /**
     * Competence multiplier per 5 primitives of remaining plan depth:
     * effective quality = primitive_quality * horizon_decay^(depth/5).
     */
    double horizon_decay = 0.85;

    /**
     * P(the policy still heads the right way when the task's next goal is
     * *out of sight*). Reactive policies imitate visible affordances; they
     * carry no explicit task-level plan, so multi-stage tasks whose next
     * objective lies elsewhere are far out of distribution.
     */
    double out_of_sight_follow = 0.10;

    /** Actuation time per primitive interaction, seconds. */
    double actuation_s = 0.5;

    /** Locomotion time per grid cell, seconds. */
    double move_per_cell_s = 0.12;

    // --- presets ---
    static VlaProfile rt2();
    static VlaProfile octo();
    static VlaProfile diffusionPolicy();
};

/**
 * Run an end-to-end episode: each global step is one control tick — one
 * VLA forward pass emitting one primitive. A correct tick executes the
 * next primitive of the (recompiled) oracle behavior; an incorrect tick
 * wastes the action. There is no planning, memory, communication, or
 * reflection machinery at all.
 *
 * Tick budget: `options.max_steps_override` when given, otherwise
 * 6x the task's step budget (ticks are much finer-grained than the
 * modular paradigm's plan-act steps).
 *
 * Throws std::invalid_argument naming the VlaProfile field for a tick
 * latency or actuation time that is not finite and > 0, a latency cv or
 * per-cell motion time that is not finite and >= 0, or a
 * primitive_quality, horizon_decay or out_of_sight_follow outside
 * [0, 1].
 */
EpisodeResult runEndToEnd(env::Environment &environment,
                          const VlaProfile &profile,
                          const EpisodeOptions &options);

} // namespace ebs::core

#endif // EBS_CORE_VLA_H
