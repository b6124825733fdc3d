#include "trace_summarize/summarize_core.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace ebs::tracetool {

namespace {

/** Read one event object, keeping the fields Event carries. */
Event
parseEvent(obs::JsonReader &reader)
{
    Event event;
    reader.parseObjectWith([&](const std::string &key) {
        if (key == "name") {
            event.name = reader.parseString();
        } else if (key == "cat") {
            event.cat = reader.parseString();
        } else if (key == "ph") {
            const std::string ph = reader.parseString();
            event.ph = ph.empty() ? '?' : ph[0];
        } else if (key == "s") {
            reader.parseString();
        } else if (key == "ts") {
            event.ts_us = reader.parseNumber();
            event.has_ts = true;
        } else if (key == "dur") {
            event.dur_us = reader.parseNumber();
            event.has_dur = true;
        } else if (key == "pid") {
            event.pid = static_cast<long long>(reader.parseNumber());
        } else if (key == "tid") {
            event.tid = static_cast<long long>(reader.parseNumber());
        } else if (key == "args") {
            reader.parseObjectWith([&](const std::string &arg) {
                if (reader.peek() == '"')
                    event.str_args.emplace_back(arg, reader.parseString());
                else if (reader.peekNumber())
                    event.num_args.emplace_back(arg, reader.parseNumber());
                else
                    reader.skipValue();
            });
        } else {
            reader.skipValue();
        }
    });
    return event;
}

std::string
trackLabel(long long pid, long long tid)
{
    return "pid=" + std::to_string(pid) + " tid=" + std::to_string(tid);
}

void
appendSeconds(std::string &out, double us)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", us / 1e6);
    out += buf;
}

/** "COMBO#8919" -> "COMBO": scheduler tasks are labeled per episode
 * (workload#seed), so the rollup drops a trailing `#<digits>` to
 * aggregate one workload's tasks into one row. */
std::string
withoutSeedSuffix(const std::string &name)
{
    const std::size_t hash = name.rfind('#');
    if (hash == std::string::npos || hash + 1 == name.size())
        return name;
    for (std::size_t i = hash + 1; i < name.size(); ++i)
        if (name[i] < '0' || name[i] > '9')
            return name;
    return name.substr(0, hash);
}

} // namespace

ParseResult
parseTraceText(const std::string &text)
{
    ParseResult result;
    obs::JsonReader reader(text, &result.error);
    bool saw_events = false;
    reader.parseObjectWith([&](const std::string &key) {
        if (key != "traceEvents") {
            reader.skipValue();
            return;
        }
        saw_events = true;
        reader.parseArrayWith(
            [&] { result.events.push_back(parseEvent(reader)); });
    });
    if (reader.finish() && !saw_events)
        reader.fail("top-level object has no \"traceEvents\" array");
    result.ok = !reader.failed();
    if (!result.ok)
        result.events.clear();
    return result;
}

ParseResult
parseTraceFile(const std::string &path)
{
    ParseResult result;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        result.error = path + ": cannot open";
        return result;
    }
    std::string text;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, file)) > 0)
        text.append(buf, got);
    const bool read_ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!read_ok) {
        result.error = path + ": read error";
        return result;
    }
    result = parseTraceText(text);
    if (!result.ok)
        result.error = path + ": " + result.error;
    return result;
}

std::vector<std::string>
validate(const std::vector<Event> &events)
{
    std::vector<std::string> issues;
    struct Track
    {
        bool has_last = false;
        double last_ts_us = 0.0;
        std::vector<std::string> open; ///< B/E name stack
    };
    std::map<std::pair<long long, long long>, Track> tracks;

    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &event = events[i];
        if (event.ph == 'M')
            continue; // metadata carries no timeline
        Track &track = tracks[{event.pid, event.tid}];
        if (event.has_ts) {
            if (track.has_last && event.ts_us < track.last_ts_us) {
                issues.push_back(
                    trackLabel(event.pid, event.tid) +
                    ": ts goes backwards at event #" + std::to_string(i) +
                    " (\"" + event.name + "\")");
            }
            track.has_last = true;
            track.last_ts_us = event.ts_us;
        } else {
            issues.push_back(trackLabel(event.pid, event.tid) +
                             ": event #" + std::to_string(i) + " (\"" +
                             event.name + "\") has no ts");
        }
        if (event.ph == 'B') {
            track.open.push_back(event.name);
        } else if (event.ph == 'E') {
            if (track.open.empty()) {
                issues.push_back(trackLabel(event.pid, event.tid) +
                                 ": E without an open B at event #" +
                                 std::to_string(i));
            } else {
                track.open.pop_back();
            }
        } else if (event.ph == 'X') {
            if (event.has_dur && event.dur_us < 0.0) {
                issues.push_back(trackLabel(event.pid, event.tid) +
                                 ": X with negative dur at event #" +
                                 std::to_string(i) + " (\"" + event.name +
                                 "\")");
            }
        }
    }

    for (const auto &[key, track] : tracks) {
        for (const auto &name : track.open)
            issues.push_back(trackLabel(key.first, key.second) +
                             ": span \"" + name +
                             "\" is still open at end of trace");
    }
    return issues;
}

std::string
summarize(const std::vector<Event> &events)
{
    // Process labels from process_name metadata, for readable headings.
    std::map<long long, std::string> process_names;
    for (const Event &event : events) {
        if (event.ph == 'M' && event.name == "process_name") {
            for (const auto &[key, value] : event.str_args)
                if (key == "name")
                    process_names[event.pid] = value;
        }
    }
    const auto processLabel = [&process_names](long long pid) {
        const auto it = process_names.find(pid);
        const std::string name =
            it != process_names.end() ? it->second : "pid " +
                                                         std::to_string(pid);
        return name;
    };

    struct SpanStats
    {
        long long count = 0;
        double total_us = 0.0;
    };
    struct InstantStats
    {
        long long count = 0;
        std::map<std::string, double> arg_sums;
    };

    // B/E spans roll up by (process label, full stack path): the
    // flame-style view. Self time is total minus children, which the
    // path ordering below makes easy to eyeball; the tool prints totals.
    std::map<std::pair<std::string, std::string>, SpanStats> spans;
    std::map<std::pair<std::string, std::string>, SpanStats> complete;
    std::map<std::pair<std::string, std::string>, InstantStats> instants;

    struct OpenSpan
    {
        std::string path;
        double begin_us = 0.0;
    };
    std::map<std::pair<long long, long long>, std::vector<OpenSpan>> stacks;

    for (const Event &event : events) {
        if (event.ph == 'M')
            continue;
        const std::string process = processLabel(event.pid);
        auto &stack = stacks[{event.pid, event.tid}];
        if (event.ph == 'B') {
            // Collapse per-episode labels ("CMAS#8919") and per-step
            // brackets ("step 12") to their category so phases aggregate
            // across episodes and steps — the flame view; Perfetto keeps
            // the labeled detail.
            const std::string &component =
                event.cat == "episode" || event.cat == "step"
                    ? event.cat
                    : event.name;
            std::string path =
                stack.empty() ? component
                              : stack.back().path + ";" + component;
            stack.push_back({std::move(path), event.ts_us});
        } else if (event.ph == 'E') {
            if (stack.empty())
                continue; // validate() reports this; keep rolling up
            SpanStats &stats = spans[{process, stack.back().path}];
            ++stats.count;
            stats.total_us += event.ts_us - stack.back().begin_us;
            stack.pop_back();
        } else if (event.ph == 'X') {
            SpanStats &stats =
                complete[{process, withoutSeedSuffix(event.name)}];
            ++stats.count;
            stats.total_us += event.dur_us;
        } else if (event.ph == 'i') {
            InstantStats &stats =
                instants[{process, event.cat + ";" + event.name}];
            ++stats.count;
            for (const auto &[key, value] : event.num_args)
                stats.arg_sums[key] += value;
        }
    }

    std::string out;
    std::string last_process;
    std::string last_section;
    const auto heading = [&out, &last_process,
                          &last_section](const std::string &process,
                                         const char *section) {
        if (process != last_process) {
            out += "== " + process + " ==\n";
            last_process = process;
            last_section.clear();
        }
        if (section != last_section) {
            out += std::string("  [") + section + "]\n";
            last_section = section;
        }
    };

    for (const auto &[key, stats] : spans) {
        heading(key.first, "spans");
        out += "    " + std::to_string(stats.count) + "x  total_s=";
        appendSeconds(out, stats.total_us);
        out += "  " + key.second + "\n";
    }
    for (const auto &[key, stats] : complete) {
        heading(key.first, "tasks");
        out += "    " + std::to_string(stats.count) + "x  total_s=";
        appendSeconds(out, stats.total_us);
        out += "  " + key.second + "\n";
    }
    for (const auto &[key, stats] : instants) {
        heading(key.first, "instants");
        out += "    " + std::to_string(stats.count) + "x  " + key.second;
        for (const auto &[arg, sum] : stats.arg_sums) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", sum);
            out += "  sum(" + arg + ")=" + buf;
        }
        out += "\n";
    }
    if (out.empty())
        out = "(no events)\n";
    return out;
}

} // namespace ebs::tracetool
