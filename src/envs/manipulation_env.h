#ifndef EBS_ENVS_MANIPULATION_ENV_H
#define EBS_ENVS_MANIPULATION_ENV_H

#include <vector>

#include "envs/grid_env.h"
#include "plan/rrt.h"

namespace ebs::envs {

/**
 * Multi-arm tabletop manipulation, modeled on RoCoBench (RoCo): blocks on a
 * shared workspace must each be moved to a per-block goal zone while
 * avoiding fixed obstacles.
 *
 * Low-level motion is priced by a *real RRT* in the continuous workspace
 * (collision circles for the obstacles); the discrete body path comes from
 * A* over the rasterized obstacle map. This keeps execution latency tied
 * to actual sampling-based motion-planning effort — the paper reports
 * RoCo's execution module at ~49% of step latency largely because of RRT.
 */
class ManipulationEnv : public GridEnvironment
{
  public:
    /** easy: 3 blocks; medium: 5; hard: 8 (more obstacles) */
    ManipulationEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    /** A* path + RRT pricing; cost reflects continuous path length and
     * sampling effort. */
    double motionCost(const env::Vec2i &from, const env::Vec2i &to,
                      std::vector<env::Vec2i> *path) const override;

    /** Motion pricing consumes the shared RRT stream (rrt_rng_,
     * rrt_iterations_) in query order — racing it across threads, or
     * replaying it after a discarded run, would diverge from serial — so
     * this environment's execute phase always runs serially. */
    bool speculativeExecuteSafe() const override { return false; }

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    env::ObjectId targetOf(env::ObjectId block) const;

    /** RRT tree extensions accumulated across motion queries. */
    long rrtIterations() const { return rrt_iterations_; }

    const plan::Workspace &workspace() const { return workspace_; }

  private:
    std::vector<std::pair<env::ObjectId, env::ObjectId>> goals_;
    plan::Workspace workspace_;
    mutable sim::Rng rrt_rng_;
    mutable long rrt_iterations_ = 0;
};

} // namespace ebs::envs

#endif // EBS_ENVS_MANIPULATION_ENV_H
