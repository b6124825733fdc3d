#ifndef EBS_LLM_MODEL_PROFILE_H
#define EBS_LLM_MODEL_PROFILE_H

#include <string>

namespace ebs::llm {

/**
 * Performance and capability profile of one language (or vision-language)
 * model, the unit of substitution for the paper's GPT-4 / Llama / LLaVA
 * backends.
 *
 * Latency model: a completion with T_in prompt tokens and T_out generated
 * tokens costs
 *
 *     api_rtt + T_in / prefill_tok_per_s + T_out / decode_tok_per_s
 *
 * with api_rtt = 0 for local models. Capability model: each call kind
 * (planning / communication / reflection) has a base quality in [0, 1] — the
 * probability that the model produces the *good* output — degraded further
 * by context dilution and joint-reasoning complexity (see sampleCompletion).
 *
 * Numbers are calibrated to the paper's hardware setup (GPT-4 via OpenAI
 * API; local models on an NVIDIA A6000).
 */
struct ModelProfile
{
    std::string name;

    // --- latency ---
    bool remote = false;           ///< true for API-served models
    double api_rtt_mean_s = 0.0;   ///< fixed round-trip overhead per call
    double api_rtt_cv = 0.0;       ///< relative jitter of the RTT
    double prefill_tok_per_s = 1;  ///< prompt-processing throughput
    double decode_tok_per_s = 1;   ///< generation throughput
    int context_limit = 8192;      ///< max prompt tokens before truncation

    // --- capability ---
    double plan_quality = 0.5;     ///< P(good high-level plan), undiluted
    double comm_quality = 0.5;     ///< P(useful message / correct parse)
    double reflect_quality = 0.5;  ///< P(correctly judging an outcome)
    double format_compliance = 1;  ///< P(output parses at all)

    // --- context dilution (Takeaway 5: long prompts dilute attention) ---
    double dilution_onset_tokens = 3000;  ///< no penalty below this size
    double dilution_scale_tokens = 10000; ///< halves quality per this many

    /** Quality multiplier (<= 1) for a prompt of the given size. */
    double dilutionFactor(int tokens_in) const;

    // --- presets used across the workload suite ---
    static ModelProfile gpt4Api();
    static ModelProfile llama3_8bLocal();
    static ModelProfile llama13bLocal();
    static ModelProfile llava7bLocal();
    static ModelProfile llama7bLocal();

    /**
     * AWQ-style 4-bit quantized variant of a local profile: ~1.8x decode
     * throughput, ~0.97x quality (Recommendation 1 ablation).
     */
    static ModelProfile quantized(const ModelProfile &base);

    /**
     * LoRA task-tuned variant (Recommendation 4): parameter-efficient
     * fine-tuning on domain data narrows the gap to large models on the
     * tuned task family — quality axes move a fraction `gain` of the way
     * to 1.0 and format compliance rises — at unchanged inference speed.
     *
     * @param gain fraction of the remaining quality gap closed, in [0, 1]
     */
    static ModelProfile loraTuned(const ModelProfile &base,
                                  double gain = 0.5);
};

} // namespace ebs::llm

#endif // EBS_LLM_MODEL_PROFILE_H
