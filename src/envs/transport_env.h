#ifndef EBS_ENVS_TRANSPORT_ENV_H
#define EBS_ENVS_TRANSPORT_ENV_H

#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * Multi-room object transport, modeled on the ThreeDWorld Multi-Agent
 * Transport (TDW-MAT) challenge used by CoELA and the object-transport
 * tasks of DaDu-E.
 *
 * A multi-room apartment contains goal items scattered across rooms (some
 * hidden inside closed containers) and a single goal zone. The task is to
 * deliver every goal item into the zone. Partial observability makes
 * exploration and memory matter: an agent only sees the room it stands in.
 */
class TransportEnv : public GridEnvironment
{
  public:
    /**
     * @param difficulty easy: 2x2 rooms / 4 items; medium: 3x2 / 8;
     *                   hard: 3x3 / 12 (some items in closed containers)
     * @param n_agents   number of embodied agents to spawn
     * @param rng        layout randomness (fork of the episode seed)
     */
    TransportEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    /** The delivery zone object. */
    env::ObjectId goalZone() const { return zone_; }

    /** Total goal items. */
    int goalCount() const { return goal_count_; }

    /** Kind code of goal items. */
    static constexpr int kGoalItem = 1;
    /** Kind code of distractor items. */
    static constexpr int kDistractor = 0;

  private:
    env::ObjectId zone_ = env::kNoObject;
    int goal_count_ = 0;
};

} // namespace ebs::envs

#endif // EBS_ENVS_TRANSPORT_ENV_H
