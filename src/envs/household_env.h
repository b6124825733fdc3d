#ifndef EBS_ENVS_HOUSEHOLD_ENV_H
#define EBS_ENVS_HOUSEHOLD_ENV_H

#include <utility>
#include <vector>

#include "envs/grid_env.h"

namespace ebs::envs {

/**
 * Household rearrangement, modeled on Communicative Watch-And-Help (C-WAH)
 * and VirtualHome tasks used by OLA, CoELA, COHERENT, and EmbodiedGPT:
 * "set the table" / "put groceries away". Every goal item has a designated
 * destination (the dining table or the fridge); several goal items start
 * hidden inside closed cabinets, so agents must search.
 */
class HouseholdEnv : public GridEnvironment
{
  public:
    /**
     * @param difficulty easy: 3 items, none hidden; medium: 5 items, 2
     *                   hidden; hard: 8 items, 4 hidden, larger flat
     */
    HouseholdEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng);

    std::vector<env::Subgoal> usefulSubgoals(int agent_id) const override;
    std::vector<env::Subgoal> validSubgoals(int agent_id) const override;

    /** Destination for a goal item (kNoObject if not a goal item). */
    env::ObjectId destinationOf(env::ObjectId item) const;

  private:
    /** (goal item, destination container/zone) pairs. */
    std::vector<std::pair<env::ObjectId, env::ObjectId>> goals_;
    env::ObjectId table_ = env::kNoObject;
    env::ObjectId fridge_ = env::kNoObject;
};

} // namespace ebs::envs

#endif // EBS_ENVS_HOUSEHOLD_ENV_H
