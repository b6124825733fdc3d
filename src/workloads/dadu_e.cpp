#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * DaDu-E (Sun et al.): LiDAR point-cloud sensing, lightweight Llama-8B
 * planning, LLaVA-8B reflection, memory augmentation, and AnyGrasp
 * low-level grasping — the heavy execution module (38.1% of step latency
 * per Fig. 2a). Evaluated on object transport.
 */
WorkloadSpec
makeDaduE()
{
    WorkloadSpec spec;
    spec.name = "DaDu-E";
    spec.paradigm = Paradigm::SingleModular;
    spec.sensing_desc = "PointCloud";
    spec.planning_desc = "Llama-8B";
    spec.comm_desc = "-";
    spec.memory_desc = "Ob., Act.";
    spec.reflection_desc = "LLaVA-8B";
    spec.execution_desc = "AnyGrasp";
    spec.tasks_desc = "Object transport, autonomous decisions";
    spec.env_name = "transport";
    spec.default_agents = 1;

    core::AgentConfig cfg;
    cfg.has_communication = false;
    llm::ModelProfile planner = llm::ModelProfile::llama3_8bLocal();
    // DaDu-E constrains planning to closed-loop multiple-choice prompts,
    // recovering much of the reasoning gap (paper Rec. 4).
    planner.name = "Llama-8B (multiple-choice planning)";
    planner.plan_quality = 0.74;
    planner.format_compliance = 0.95;
    cfg.planner_model = planner;
    cfg.reflect_model = llm::ModelProfile::llava7bLocal();
    cfg.reflect_model.name = "LLaVA-8B (local)";
    cfg.reflect_model.reflect_quality = 0.74;
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingPointCloud();
    cfg.lat.actuation = {2.6, 0.35}; // AnyGrasp perception + grasp motion
    cfg.lat.move_per_cell_s = 0.30;  // real robot base locomotion
    cfg.lat.motion_planner = {0.15, 0.4};
    cfg.lat.plan_prompt_base = 500;
    cfg.lat.plan_out_tokens = 60;
    spec.step_budget_factor = 0.7;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
