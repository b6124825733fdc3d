#ifndef EBS_PLAN_CONTROLLER_H
#define EBS_PLAN_CONTROLLER_H

#include <vector>

#include "env/env.h"
#include "env/subgoal.h"

namespace ebs::plan {

/** A subgoal compiled to a primitive sequence. */
struct Compiled
{
    bool feasible = false;
    const char *reason = "";            ///< why compilation failed (a literal)
    std::vector<env::Primitive> prims;  ///< primitives to execute in order
};

/**
 * Compile a high-level subgoal into primitives for one agent: navigate
 * (via the environment's motion planner), then interact.
 *
 * This is the heart of the low-level execution module — the piece the
 * paper's Fig. 3 shows to be indispensable: without it, the LLM has to emit
 * primitives directly and drowns in the expanded decision space.
 */
Compiled compileSubgoal(const env::Environment &environment, int agent_id,
                        const env::Subgoal &subgoal);

} // namespace ebs::plan

#endif // EBS_PLAN_CONTROLLER_H
