#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * DEPS (Wang et al.): symbolic-information sensing, GPT-4
 * describe-explain-plan-select planning, CLIP-based selector/reflector,
 * MineDojo controller. Evaluated on open-world crafting chains.
 */
WorkloadSpec
makeDeps()
{
    WorkloadSpec spec;
    spec.name = "DEPS";
    spec.paradigm = Paradigm::SingleModular;
    spec.sensing_desc = "Symbolic info";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "-";
    spec.memory_desc = "-";
    spec.reflection_desc = "CLIP";
    spec.execution_desc = "MineDojo";
    spec.tasks_desc = "Complex-dependency crafting (diamond pickaxe)";
    spec.env_name = "craft";
    spec.default_agents = 1;

    core::AgentConfig cfg;
    cfg.has_communication = false;
    cfg.has_memory = false;
    // "Symbolic info" sensing: the simulator hands DEPS the full symbolic
    // game state, so there is no perception model in the loop.
    cfg.has_sensing = false;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = clipReflector();

    cfg.lat.sensing = sensingSymbolic();
    cfg.lat.actuation = {0.8, 0.3};
    cfg.lat.move_per_cell_s = 0.12;
    cfg.lat.plan_prompt_base = 1000; // describe+explain chains
    cfg.lat.plan_out_tokens = 140;
    cfg.lat.reflect_prompt_base = 120;
    cfg.lat.reflect_out_tokens = 8; // CLIP similarity scoring
    spec.step_budget_factor = 0.5;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
