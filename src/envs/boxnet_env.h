#ifndef EBS_ENVS_BOXNET_ENV_H
#define EBS_ENVS_BOXNET_ENV_H

#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * BoxNet-style collaborative box rearrangement (CMAS / DMAS / HMAS
 * benchmarks): boxes start scattered across a zoned floor and each must be
 * routed to its own colored target zone. Boxes far from their target must
 * pass through intermediate zones, so work naturally partitions across
 * agents and mis-assignment wastes steps.
 */
class BoxNetEnv : public GridEnvironment
{
  public:
    /**
     * @param difficulty easy: 2x2 zones / 2 boxes; medium: 3x2 / 4;
     *                   hard: 3x3 / 6
     */
    BoxNetEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    /** Target zone object for a box (kNoObject if not a box). */
    env::ObjectId targetOf(env::ObjectId box) const;
    int boxCount() const { return static_cast<int>(goals_.size()); }

  private:
    std::vector<std::pair<env::ObjectId, env::ObjectId>> goals_;
};

} // namespace ebs::envs

#endif // EBS_ENVS_BOXNET_ENV_H
