#include "memory/memory.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ebs::memory {

MemoryModule::MemoryModule(Config config, sim::Rng rng)
    : config_(config), rng_(rng)
{
}

bool
MemoryModule::insideWindow(int record_step) const
{
    if (config_.capacity_steps <= 0)
        return true; // unlimited
    return record_step > current_step_ - config_.capacity_steps;
}

void
MemoryModule::retain(env::ObjectId id)
{
    if (id < 0)
        throw std::invalid_argument(
            "MemoryModule: record about a negative object id");
    const auto i = static_cast<std::size_t>(id);
    if (i >= live_refs_.size())
        live_refs_.resize(i + 1, 0);
    if (live_refs_[i]++ == 0)
        ++known_ids_;
}

void
MemoryModule::release(env::ObjectId id)
{
    const auto i = static_cast<std::size_t>(id);
    assert(id >= 0 && i < live_refs_.size() && live_refs_[i] > 0);
    if (--live_refs_[i] == 0)
        --known_ids_;
}

void
MemoryModule::recordObservation(const env::Observation &obs)
{
    if (!config_.enabled)
        return;
    current_step_ = std::max(current_step_, obs.step);

    // Remember the room visit.
    bool found = false;
    for (auto &[room, step] : room_visits_) {
        if (room == obs.room) {
            step = obs.step;
            found = true;
            break;
        }
    }
    if (!found && obs.room >= 0)
        room_visits_.emplace_back(obs.room, obs.step);

    for (const auto &seen : obs.objects) {
        ObservationRecord rec;
        rec.step = obs.step;
        rec.id = seen.id;
        rec.cls = seen.cls;
        rec.kind = seen.kind;
        rec.state = seen.state;
        rec.pos = seen.pos;
        rec.room = seen.room;
        rec.inside = seen.inside;
        rec.openable = seen.openable;
        rec.open = seen.open;
        retain(rec.id);
        observations_.push_back(rec);

        // Dual memory: fixtures (stations, containers, targets) are
        // environment-static, so they graduate to long-term storage.
        if (config_.dual_memory && seen.cls != env::ObjectClass::Item) {
            auto it = std::find_if(long_term_.begin(), long_term_.end(),
                                   [&](const ObservationRecord &r) {
                                       return r.id == seen.id;
                                   });
            if (it == long_term_.end()) {
                retain(rec.id);
                long_term_.push_back(rec);
            } else {
                *it = rec;
            }
        }
    }
}

void
MemoryModule::recordSharedBelief(int step, const ObservationRecord &record)
{
    if (!config_.enabled)
        return;
    ObservationRecord rec = record;
    rec.step = step;
    retain(rec.id);
    observations_.push_back(rec);
}

void
MemoryModule::recordAction(int step)
{
    if (!config_.enabled)
        return;
    actions_.push_back(step);
}

void
MemoryModule::recordDialogue(const DialogueRecord &record)
{
    if (!config_.enabled)
        return;
    dialogue_.push_back(record);
    dialogue_tokens_ += record.tokens;
}

void
MemoryModule::advanceStep(int step)
{
    current_step_ = std::max(current_step_, step);
    if (!config_.enabled || config_.capacity_steps <= 0)
        return;
    while (!observations_.empty() &&
           !insideWindow(observations_.front().step)) {
        release(observations_.front().id);
        observations_.pop_front();
    }
    while (!actions_.empty() && !insideWindow(actions_.front()))
        actions_.pop_front();
    while (!dialogue_.empty() && !insideWindow(dialogue_.front().step)) {
        dialogue_tokens_ -= dialogue_.front().tokens;
        dialogue_.pop_front();
    }
    // Room visits outside the window are forgotten too (unless dual memory
    // keeps the layout in long-term storage).
    if (!config_.dual_memory) {
        std::erase_if(room_visits_, [&](const auto &rv) {
            return !insideWindow(rv.second);
        });
    }
}

void
MemoryModule::invalidate(env::ObjectId id)
{
    if (id >= 0 && static_cast<std::size_t>(id) < live_refs_.size()) {
        int &refs = live_refs_[static_cast<std::size_t>(id)];
        if (refs > 0)
            --known_ids_;
        refs = 0;
    }
    std::erase_if(observations_,
                  [&](const ObservationRecord &rec) { return rec.id == id; });
    std::erase_if(long_term_,
                  [&](const ObservationRecord &rec) { return rec.id == id; });
}

std::optional<ObservationRecord>
MemoryModule::belief(env::ObjectId id) const
{
    if (!config_.enabled)
        return std::nullopt;
    // Latest record wins (stores are chronological).
    for (auto it = observations_.rbegin(); it != observations_.rend(); ++it)
        if (it->id == id)
            return *it;
    for (const auto &rec : long_term_)
        if (rec.id == id)
            return rec;
    return std::nullopt;
}

bool
MemoryModule::knowsObject(env::ObjectId id) const
{
    return belief(id).has_value();
}

std::vector<ObservationRecord>
MemoryModule::knownObjects() const
{
    std::vector<ObservationRecord> out;
    if (!config_.enabled)
        return out;
    out.reserve(static_cast<std::size_t>(known_ids_));
    // Every stored id indexes live_refs_, so it sizes the seen flags.
    std::vector<char> seen(live_refs_.size(), 0);
    auto first_sighting = [&](env::ObjectId id) {
        char &flag = seen[static_cast<std::size_t>(id)];
        const bool first = flag == 0;
        flag = 1;
        return first;
    };
    for (auto it = observations_.rbegin(); it != observations_.rend(); ++it) {
        if (first_sighting(it->id))
            out.push_back(*it);
    }
    for (const auto &rec : long_term_)
        if (first_sighting(rec.id))
            out.push_back(rec);
    return out;
}

int
MemoryModule::lastVisit(int room) const
{
    for (const auto &[r, step] : room_visits_)
        if (r == room)
            return step;
    return -1;
}

RetrievedContext
MemoryModule::retrieve(int current_step)
{
    RetrievedContext ctx;
    if (!config_.enabled)
        return ctx;
    current_step_ = std::max(current_step_, current_step);

    const int known = known_ids_;
    ctx.known_objects = known;
    // ~9 tokens per object sighting ("apple 3 at (4,7) in kitchen, chopped")
    ctx.observation_tokens = known * 9;
    // Dual memory summarizes static fixtures much more compactly.
    if (config_.dual_memory)
        ctx.observation_tokens =
            known * 5 + static_cast<int>(long_term_.size()) * 2;

    ctx.action_tokens = static_cast<int>(actions_.size()) * 7;
    ctx.dialogue_tokens = dialogue_tokens_;

    // Inconsistency model: past the onset, each extra live record adds a
    // small chance that retrieval surfaces a superseded belief.
    const std::size_t live = liveRecords();
    if (live > static_cast<std::size_t>(config_.inconsistency_onset)) {
        const double excess =
            static_cast<double>(live) - config_.inconsistency_onset;
        double p = excess * config_.inconsistency_rate;
        if (config_.dual_memory)
            p *= 0.3;
        // Exactly one draw per known object keeps RNG streams stable.
        for (int i = 0; i < known; ++i) {
            if (rng_.bernoulli(std::min(0.5, p)))
                ++ctx.stale_beliefs;
        }
    }
    return ctx;
}

double
MemoryModule::retrievalLatency() const
{
    if (!config_.enabled)
        return 0.0;
    double per_record = config_.retrieval_per_record_s;
    if (config_.dual_memory)
        per_record *= 0.5; // short-term store stays small
    return config_.retrieval_base_s +
           per_record * static_cast<double>(liveRecords());
}

std::size_t
MemoryModule::liveRecords() const
{
    return observations_.size() + actions_.size() + dialogue_.size() +
           long_term_.size();
}

void
MemoryModule::clear()
{
    observations_.clear();
    actions_.clear();
    dialogue_.clear();
    dialogue_tokens_ = 0;
    room_visits_.clear();
    long_term_.clear();
    live_refs_.clear();
    known_ids_ = 0;
    current_step_ = 0;
}

} // namespace ebs::memory
