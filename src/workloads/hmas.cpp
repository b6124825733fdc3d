#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * HMAS (Chen et al.): hybrid central-initial-plan + local-feedback
 * multi-robot system, profiled under the decentralized paradigm per the
 * paper's suite. Evaluated on BoxLift, where crates need multiple robots
 * lifting simultaneously — the coordination-critical domain.
 */
WorkloadSpec
makeHmas()
{
    WorkloadSpec spec;
    spec.name = "HMAS";
    spec.paradigm = Paradigm::MultiDecentralized;
    spec.sensing_desc = "ViLD";
    spec.planning_desc = "GPT-4";
    spec.comm_desc = "GPT-4";
    spec.memory_desc = "Ob., Act., Dx.";
    spec.reflection_desc = "GPT-4";
    spec.execution_desc = "Action list";
    spec.tasks_desc = "Joint lifting, long-horizon planning (BoxLift)";
    spec.env_name = "boxlift";
    spec.default_agents = 3;

    core::AgentConfig cfg;
    cfg.has_communication = true;
    cfg.has_reflection = true;
    cfg.planner_model = llm::ModelProfile::gpt4Api();
    cfg.comm_model = llm::ModelProfile::gpt4Api();
    cfg.reflect_model = llm::ModelProfile::gpt4Api();
    cfg.memory = defaultMemory();

    cfg.lat.sensing = sensingVild();
    cfg.lat.actuation = {1.1, 0.3}; // joint lift maneuvers
    cfg.lat.move_per_cell_s = 0.15;
    cfg.lat.plan_prompt_base = 800;
    cfg.lat.plan_out_tokens = 100;
    cfg.lat.comm_prompt_base = 480;
    cfg.lat.comm_out_tokens = 70;
    spec.step_budget_factor = 0.18;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
