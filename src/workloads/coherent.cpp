#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * COHERENT (Liu et al.): centralized hierarchical framework for
 * heterogeneous multi-robot planning — DINO sensing, GPT-4
 * proposal-execution-feedback-adjustment (heavy communication), RRT /
 * A-star executors. Communication is this workload's latency bottleneck
 * (Fig. 2a).
 */
WorkloadSpec
makeCoherent()
{
    WorkloadSpec spec;
    spec.name = "COHERENT";
    spec.paradigm = Paradigm::MultiCentralized;
    spec.sensing_desc = "DINO";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "GPT-4";
    spec.execution_desc = "RRT/A-star";
    spec.tasks_desc = "Heterogeneous robot task/motion planning (BEHAVIOR)";
    spec.env_name = "household";
    spec.default_agents = 3;

    core::AgentConfig cfg;
    cfg.has_communication = true;
    cfg.has_reflection = true;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingDino();
    cfg.lat.actuation = {1.6, 0.35}; // robot arm interactions
    cfg.lat.move_per_cell_s = 0.25;
    cfg.lat.motion_planner = {0.25, 0.5}; // RRT queries
    cfg.lat.plan_prompt_base = 1100;
    cfg.lat.plan_out_tokens = 110;
    // Proposal-feedback-adjustment rounds make messages long.
    cfg.lat.comm_prompt_base = 900;
    cfg.lat.comm_out_tokens = 160;
    spec.step_budget_factor = 0.5;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
