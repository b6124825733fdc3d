#include "llm/model_profile.h"

#include <algorithm>
#include <cmath>

namespace ebs::llm {

double
ModelProfile::dilutionFactor(int tokens_in) const
{
    const double excess =
        std::max(0.0, static_cast<double>(tokens_in) - dilution_onset_tokens);
    // Smooth hyperbolic falloff: 1 at onset, 1/2 after dilution_scale
    // excess tokens, approaching 0 asymptotically.
    return 1.0 / (1.0 + excess / dilution_scale_tokens);
}

ModelProfile
ModelProfile::gpt4Api()
{
    ModelProfile p;
    p.name = "GPT-4 (API)";
    p.remote = true;
    p.api_rtt_mean_s = 0.9;
    p.api_rtt_cv = 0.35;
    p.prefill_tok_per_s = 5000;
    p.decode_tok_per_s = 22;
    p.context_limit = 32768;
    p.plan_quality = 0.90;
    p.comm_quality = 0.88;
    p.reflect_quality = 0.90;
    p.format_compliance = 0.99;
    p.dilution_onset_tokens = 6000;
    p.dilution_scale_tokens = 24000;
    return p;
}

ModelProfile
ModelProfile::llama3_8bLocal()
{
    ModelProfile p;
    p.name = "Llama-3-8B (local)";
    p.remote = false;
    p.prefill_tok_per_s = 2800;
    p.decode_tok_per_s = 48;
    p.context_limit = 8192;
    p.plan_quality = 0.60;
    p.comm_quality = 0.58;
    p.reflect_quality = 0.62;
    p.format_compliance = 0.88;
    p.dilution_onset_tokens = 2000;
    p.dilution_scale_tokens = 6000;
    return p;
}

ModelProfile
ModelProfile::llama13bLocal()
{
    ModelProfile p;
    p.name = "Llama-13B (local)";
    p.remote = false;
    p.prefill_tok_per_s = 1800;
    p.decode_tok_per_s = 30;
    p.context_limit = 4096;
    p.plan_quality = 0.68;
    p.comm_quality = 0.64;
    p.reflect_quality = 0.68;
    p.format_compliance = 0.90;
    p.dilution_onset_tokens = 2000;
    p.dilution_scale_tokens = 6000;
    return p;
}

ModelProfile
ModelProfile::llava7bLocal()
{
    ModelProfile p = llama3_8bLocal();
    p.name = "LLaVA-7B (local)";
    p.prefill_tok_per_s = 2200; // vision encoder adds prompt-side cost
    p.decode_tok_per_s = 40;
    p.plan_quality = 0.58;
    p.comm_quality = 0.56;
    p.reflect_quality = 0.64;
    return p;
}

ModelProfile
ModelProfile::llama7bLocal()
{
    ModelProfile p = llama3_8bLocal();
    p.name = "Llama-7B (local)";
    p.prefill_tok_per_s = 3000;
    p.decode_tok_per_s = 52;
    p.plan_quality = 0.56;
    p.comm_quality = 0.52;
    p.reflect_quality = 0.58;
    p.format_compliance = 0.85;
    return p;
}

ModelProfile
ModelProfile::loraTuned(const ModelProfile &base, double gain)
{
    const double g = std::clamp(gain, 0.0, 1.0);
    ModelProfile p = base;
    p.name = base.name + " [LoRA-tuned]";
    p.plan_quality += g * (1.0 - base.plan_quality);
    p.comm_quality += g * (1.0 - base.comm_quality);
    p.reflect_quality += g * (1.0 - base.reflect_quality);
    p.format_compliance += 0.8 * g * (1.0 - base.format_compliance);
    return p;
}

ModelProfile
ModelProfile::quantized(const ModelProfile &base)
{
    ModelProfile p = base;
    p.name = base.name + " [AWQ-4bit]";
    p.prefill_tok_per_s *= 1.4;
    p.decode_tok_per_s *= 1.8;
    p.plan_quality *= 0.97;
    p.comm_quality *= 0.97;
    p.reflect_quality *= 0.97;
    p.format_compliance *= 0.99;
    return p;
}

} // namespace ebs::llm
