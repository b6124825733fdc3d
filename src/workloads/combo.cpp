#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * COMBO (Zhang et al.): decentralized compositional-world-model agents —
 * diffusion-based state reconstruction from egocentric views (the heavy
 * sensing stage), LLaVA-7B planning/communication, tree-search refined
 * actions, A-star execution. Evaluated on TDW-Cook style cooperation.
 */
WorkloadSpec
makeCombo()
{
    WorkloadSpec spec;
    spec.name = "COMBO";
    spec.paradigm = Paradigm::MultiDecentralized;
    spec.sensing_desc = "Diffusion";
    spec.planning_desc = "LLaVA-7B";
    spec.comm_desc = "LLaVA-7B";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "-";
    spec.execution_desc = "A-star";
    spec.tasks_desc = "Collaborative cooking/gaming (TDW-Cook)";
    spec.env_name = "kitchen";
    spec.default_agents = 2;

    core::AgentConfig cfg;
    cfg.has_communication = true;
    cfg.has_reflection = false;
    llm::ModelProfile llava = llm::ModelProfile::llava7bLocal();
    // Tree-search over proposed action sequences lifts plan quality above
    // the raw model's.
    llava.plan_quality = 0.72;
    cfg.planner_model = llava;
    cfg.comm_model = llm::ModelProfile::llava7bLocal();
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingDiffusion();
    cfg.lat.actuation = {0.6, 0.3};
    cfg.lat.move_per_cell_s = 0.12;
    cfg.lat.plan_prompt_base = 700;
    cfg.lat.plan_out_tokens = 220; // tree-search proposals are verbose
    cfg.lat.comm_prompt_base = 420;
    cfg.lat.comm_out_tokens = 60;
    spec.step_budget_factor = 0.7;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
