#include "workloads/calibration.h"
#include "workloads/workload.h"

namespace ebs::workloads {

/**
 * EmbodiedGPT (Mu et al.): ViT sensing -> fine-tuned Llama-7B planning ->
 * MLP low-level policy. No communication, memory, or reflection modules.
 * Evaluated here on household rearrangement (VirtualHome-style).
 */
WorkloadSpec
makeEmbodiedGpt()
{
    WorkloadSpec spec;
    spec.name = "EmbodiedGPT";
    spec.paradigm = Paradigm::SingleModular;
    spec.sensing_desc = "ViT";
    spec.planning_desc = "Llama-7B (fine-tuned)";
    spec.comm_desc = "-";
    spec.memory_desc = "-";
    spec.reflection_desc = "-";
    spec.execution_desc = "MLP policy";
    spec.tasks_desc = "Embodied planning, VQA (VirtualHome-style)";
    spec.env_name = "household";
    spec.default_agents = 1;

    core::AgentConfig cfg;
    cfg.has_communication = false;
    cfg.has_memory = false;
    cfg.has_reflection = false;

    // Embodied fine-tuning lifts the small model's task competence well
    // above the generic Llama-7B baseline.
    llm::ModelProfile planner = llm::ModelProfile::llama7bLocal();
    planner.name = "Llama-7B (embodied fine-tune)";
    planner.plan_quality = 0.76;
    planner.format_compliance = 0.96;
    cfg.planner_model = planner;
    cfg.reflect_model = planner;
    cfg.comm_model = planner;

    cfg.lat.sensing = sensingVit();
    cfg.lat.actuation = {0.9, 0.3}; // MLP policy rollouts per interaction
    cfg.lat.move_per_cell_s = 0.22;
    cfg.lat.plan_prompt_base = 450;
    cfg.lat.plan_out_tokens = 70;
    spec.config = cfg;
    return spec;
}

} // namespace ebs::workloads
