#ifndef EBS_MEMORY_MEMORY_H
#define EBS_MEMORY_MEMORY_H

#include <deque>
#include <optional>
#include <vector>

#include "env/observation.h"
#include "sim/rng.h"

namespace ebs::memory {

/** One remembered object sighting. */
struct ObservationRecord
{
    int step = 0;
    env::ObjectId id = env::kNoObject;
    env::ObjectClass cls = env::ObjectClass::Item;
    int kind = 0;
    int state = 0;
    env::Vec2i pos;
    int room = -1;
    env::ObjectId inside = env::kNoObject;
    bool openable = false;
    bool open = true;
};

/** One remembered dialogue message (content abstracted to token size):
 * its step decides pruning, its tokens the retrieved dialogue size. */
struct DialogueRecord
{
    int step = 0;
    int tokens = 0;
};

/** What a retrieval returns, sized for prompt construction. */
struct RetrievedContext
{
    int observation_tokens = 0;
    int action_tokens = 0;
    int dialogue_tokens = 0;
    int known_objects = 0;
    int stale_beliefs = 0; ///< beliefs contradicted by current ground truth

    int
    totalTokens() const
    {
        return observation_tokens + action_tokens + dialogue_tokens;
    }
};

/**
 * The memory module: observation, action, and dialogue stores with a
 * capacity window measured in steps (the paper's Fig. 5 x-axis).
 *
 * Records older than `capacity_steps` are pruned, so small capacities
 * genuinely forget object locations and visited rooms — the mechanism
 * behind the paper's success-rate/steps sensitivity. Retrieval latency
 * grows with the number of live records, and very large windows return
 * stale or superseded beliefs more often (memory-inconsistency model).
 */
class MemoryModule
{
  public:
    /** Tuning knobs. */
    struct Config
    {
        bool enabled = true;        ///< ablation switch (Fig. 3 "w/o Memory")
        int capacity_steps = 40;    ///< window size; <=0 means unlimited
        bool dual_memory = false;   ///< Rec. 5: static facts never pruned
        double retrieval_base_s = 0.03;       ///< fixed lookup latency
        double retrieval_per_record_s = 8e-4; ///< linear scan component
        /** Per-record chance that a superseded belief wins retrieval when
         * the window holds more than `inconsistency_onset` records. */
        double inconsistency_rate = 2e-4;
        int inconsistency_onset = 300;
    };

    explicit MemoryModule(Config config, sim::Rng rng);

    const Config &config() const { return config_; }

    /** The retrieval-noise stream (its position counts the draws made). */
    const sim::Rng &rng() const { return rng_; }

    // --- writes ---

    /** Ingest an observation produced by the sensing module. */
    void recordObservation(const env::Observation &obs);

    /** Ingest a belief received from another agent's message. */
    void recordSharedBelief(int step, const ObservationRecord &record);

    /** Log one executed subgoal (retrieve() sizes each at 7 tokens). */
    void recordAction(int step);

    /** Log a dialogue message. */
    void recordDialogue(const DialogueRecord &record);

    /** Advance to `step`, pruning records outside the capacity window. */
    void advanceStep(int step);

    /**
     * Drop every belief about an object (the agent verified it is not
     * where memory claimed — e.g., another agent moved it).
     */
    void invalidate(env::ObjectId id);

    // --- reads ---

    /** Latest surviving belief about an object, if any. */
    std::optional<ObservationRecord> belief(env::ObjectId id) const;

    /** True when some surviving record mentions the object. */
    bool knowsObject(env::ObjectId id) const;

    /** Latest belief per object (deduplicated). */
    std::vector<ObservationRecord> knownObjects() const;

    /** Step at which the agent last stood in a room (-1 if unknown). */
    int lastVisit(int room) const;

    /**
     * Perform a retrieval for prompt construction; sizes reflect what an
     * LLM prompt would carry. Pass the ground-truth world to measure
     * staleness; the inconsistency model may deliberately surface a
     * superseded record (mutating nothing).
     */
    RetrievedContext retrieve(int current_step);

    /** Latency of one retrieval at the current store size. */
    double retrievalLatency() const;

    /** Number of live records across all stores. */
    std::size_t liveRecords() const;

    /** Number of surviving dialogue records. */
    std::size_t dialogueCount() const { return dialogue_.size(); }

    void clear();

  private:
    bool insideWindow(int record_step) const;

    /** Count one more / one fewer live observation or long-term record
     * about `id` (see live_refs_). */
    void retain(env::ObjectId id);
    void release(env::ObjectId id);

    Config config_;
    sim::Rng rng_;
    int current_step_ = 0;
    std::deque<ObservationRecord> observations_;
    std::deque<int> actions_; ///< step of each logged action
    std::deque<DialogueRecord> dialogue_;
    /** Sum of dialogue_'s tokens, kept on push, prune and clear so
     * retrieve does not re-sum a window that is the whole episode when
     * capacity_steps <= 0. */
    int dialogue_tokens_ = 0;
    /** room id -> last step the agent stood there (long-term in dual mode) */
    std::vector<std::pair<int, int>> room_visits_;
    /** long-term static beliefs (dual memory): station/container locations */
    std::vector<ObservationRecord> long_term_;
    /** object id -> live records about it in observations_ + long_term_
     * (ids are small dense ints), and how many ids have a nonzero count:
     * retrieve's known-object count without materializing records. */
    std::vector<int> live_refs_;
    int known_ids_ = 0;
};

} // namespace ebs::memory

#endif // EBS_MEMORY_MEMORY_H
