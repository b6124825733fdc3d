#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * RoCo (Mandi et al.): decentralized dialectic multi-robot manipulation —
 * OWL-ViT sensing, GPT-4 planning/communication/reflection, RRT low-level
 * trajectories. Execution dominates its step latency (49.4% per Fig. 2a)
 * because of sampling-based motion planning on real arms.
 */
WorkloadSpec
makeRoco()
{
    WorkloadSpec spec;
    spec.name = "RoCo";
    spec.paradigm = Paradigm::MultiDecentralized;
    spec.sensing_desc = "ViT";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "GPT-4";
    spec.execution_desc = "RRT";
    spec.tasks_desc = "Multi-arm motion planning (RoCoBench)";
    spec.env_name = "manipulation";
    spec.default_agents = 2;

    core::AgentConfig cfg;
    cfg.has_communication = true;
    cfg.has_reflection = true;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingVit();
    cfg.lat.actuation = {2.2, 0.35};    // arm trajectory execution
    cfg.lat.move_per_cell_s = 0.30;     // slow Cartesian moves
    cfg.lat.motion_planner = {0.5, 0.5}; // RRT sampling effort
    cfg.lat.plan_prompt_base = 800;
    cfg.lat.plan_out_tokens = 110;
    cfg.lat.comm_prompt_base = 450;
    cfg.lat.comm_out_tokens = 90;
    spec.step_budget_factor = 0.25;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
