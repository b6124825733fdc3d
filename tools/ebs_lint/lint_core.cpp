#include "ebs_lint/lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace ebs::lint {

namespace {

namespace fs = std::filesystem;

/** One lexical token of the comment- and string-stripped source. */
struct Token
{
    std::string text;
    int line = 0;
};

/** Per-line suppressions parsed from EBS_LINT_ALLOW comments. */
using AllowMap = std::map<int, std::set<std::string>>;

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string
trimmed(const std::string &s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

/**
 * Parse every EBS_LINT_ALLOW occurrence in one comment line. Well-formed
 * allows (known rule, non-empty reason after the colon) populate
 * `allows`; malformed ones become `lint-allow` findings so a typo'd
 * suppression cannot silently disable nothing.
 */
void
processCommentLine(const std::string &text, int line,
                   const std::string &path, AllowMap &allows,
                   std::vector<Finding> &findings)
{
    static const std::string kMarker = "EBS_LINT_ALLOW";
    std::size_t pos = 0;
    while ((pos = text.find(kMarker, pos)) != std::string::npos) {
        pos += kMarker.size();
        const auto malformed = [&](const std::string &why) {
            findings.push_back(
                {path, line, "lint-allow",
                 "malformed suppression (" + why +
                     "); want: EBS_LINT_ALLOW(<rule>): <reason>"});
        };
        if (pos >= text.size() || text[pos] != '(') {
            malformed("missing '(<rule>)'");
            continue;
        }
        const std::size_t close = text.find(')', pos);
        if (close == std::string::npos) {
            malformed("unterminated '('");
            continue;
        }
        const std::string rule = trimmed(text.substr(pos + 1, close - pos - 1));
        pos = close + 1;
        const auto &rules = ruleNames();
        if (std::find(rules.begin(), rules.end(), rule) == rules.end()) {
            malformed("unknown rule '" + rule + "'");
            continue;
        }
        if (pos >= text.size() || text[pos] != ':') {
            malformed("missing ': <reason>' after rule '" + rule + "'");
            continue;
        }
        if (trimmed(text.substr(pos + 1,
                                text.find(kMarker, pos) - pos - 1))
                .empty()) {
            malformed("empty reason for rule '" + rule + "'");
            continue;
        }
        allows[line].insert(rule);
    }
}

/**
 * Strip comments, string literals, and character literals, keeping line
 * structure; tokenize the remainder; parse EBS_LINT_ALLOW suppressions
 * out of the stripped comments.
 */
void
lexSource(const std::string &path, const std::string &content,
          std::vector<Token> &tokens, AllowMap &allows,
          std::vector<Finding> &findings)
{
    // Pass 1: comment/string stripping into (char, line) pairs.
    std::vector<std::pair<char, int>> code;
    code.reserve(content.size());
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = content.size();
    std::string comment; // current comment line's text
    int comment_line = 0;

    const auto flushComment = [&] {
        if (!comment.empty() || comment_line != 0)
            processCommentLine(comment, comment_line, path, allows,
                               findings);
        comment.clear();
        comment_line = 0;
    };

    while (i < n) {
        const char c = content[i];
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
            comment_line = line;
            i += 2;
            while (i < n && content[i] != '\n')
                comment += content[i++];
            flushComment();
            continue;
        }
        if (c == '/' && i + 1 < n && content[i + 1] == '*') {
            comment_line = line;
            i += 2;
            while (i + 1 < n &&
                   !(content[i] == '*' && content[i + 1] == '/')) {
                if (content[i] == '\n') {
                    flushComment();
                    ++line;
                    comment_line = line;
                } else {
                    comment += content[i];
                }
                ++i;
            }
            flushComment();
            i = i + 1 < n ? i + 2 : n;
            code.emplace_back(' ', line);
            continue;
        }
        if (c == '"') {
            // Raw string literal? (R"delim( ... )delim")
            const bool raw = !code.empty() && code.back().first == 'R' &&
                             (code.size() < 2 ||
                              !isIdentChar(code[code.size() - 2].first));
            ++i;
            if (raw) {
                std::string delim;
                while (i < n && content[i] != '(')
                    delim += content[i++];
                const std::string closer = ")" + delim + "\"";
                const std::size_t end = content.find(closer, i);
                const std::size_t stop =
                    end == std::string::npos ? n : end + closer.size();
                for (; i < stop; ++i)
                    if (content[i] == '\n')
                        ++line;
            } else {
                while (i < n && content[i] != '"') {
                    if (content[i] == '\\' && i + 1 < n)
                        ++i;
                    if (content[i] == '\n')
                        ++line;
                    ++i;
                }
                if (i < n)
                    ++i; // closing quote
            }
            code.emplace_back(' ', line);
            continue;
        }
        if (c == '\'' &&
            (code.empty() || !isIdentChar(code.back().first))) {
            // A quote after an identifier/number char is a digit
            // separator (1'000'000) or literal suffix, not a character
            // literal — scanning for its mate would swallow real code.
            ++i;
            while (i < n && content[i] != '\'') {
                if (content[i] == '\\' && i + 1 < n)
                    ++i;
                ++i;
            }
            if (i < n)
                ++i;
            code.emplace_back(' ', line);
            continue;
        }
        if (c == '\n') {
            ++line;
            code.emplace_back('\n', line);
            ++i;
            continue;
        }
        code.emplace_back(c, line);
        ++i;
    }

    // Pass 2: tokenize.
    static const std::set<std::string> kTwoCharOps = {
        "::", "+=", "-=", "->", "<<", ">>", "<=", ">=", "==", "!=",
        "&&", "||"};
    std::size_t k = 0;
    const std::size_t m = code.size();
    while (k < m) {
        const char c = code[k].first;
        const int at = code[k].second;
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++k;
            continue;
        }
        if (isIdentStart(c)) {
            std::string word;
            while (k < m && isIdentChar(code[k].first))
                word += code[k++].first;
            tokens.push_back({std::move(word), at});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            // pp-number: swallow the whole literal (1e6, 0x1f, 1.5e-3)
            // so its exponent letters never look like identifiers.
            std::string num;
            while (k < m &&
                   (isIdentChar(code[k].first) || code[k].first == '.' ||
                    code[k].first == '\'' ||
                    ((code[k].first == '+' || code[k].first == '-') &&
                     !num.empty() &&
                     (num.back() == 'e' || num.back() == 'E' ||
                      num.back() == 'p' || num.back() == 'P'))))
                num += code[k++].first;
            tokens.push_back({std::move(num), at});
            continue;
        }
        if (k + 1 < m) {
            const std::string two{c, code[k + 1].first};
            if (kTwoCharOps.count(two)) {
                tokens.push_back({two, at});
                k += 2;
                continue;
            }
        }
        tokens.push_back({std::string(1, c), at});
        ++k;
    }
}

/** Template-argument depth bump for one token ('<' family). */
int
angleDelta(const std::string &t)
{
    if (t == "<")
        return 1;
    if (t == ">")
        return -1;
    if (t == ">>")
        return -2;
    return 0;
}

/** Matching-close scan for parens/braces starting at the opener. */
std::size_t
matchDelim(const std::vector<Token> &toks, std::size_t open,
           const std::string &opener, const std::string &closer)
{
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == opener)
            ++depth;
        else if (toks[j].text == closer && --depth == 0)
            return j;
    }
    return toks.size();
}

/**
 * Files the suite-io rule applies to: the benchmark suites themselves
 * (bench_*.cpp / bench_*.h anywhere) plus the SuiteContext
 * implementation. The fleet driver (run_all.cpp), diff_metrics, and
 * fleet_plan are drivers, not suites — their stdout is not captured
 * per-suite, so they stay out of scope.
 */
bool
suiteIoScope(const std::string &path)
{
    const std::string name = fs::path(path).filename().string();
    return name.rfind("bench_", 0) == 0 || name == "suite.h" ||
           name == "suite.cpp";
}

struct RuleSink
{
    const std::string &path;
    std::set<std::pair<int, std::string>> seen;
    std::vector<Finding> out;

    void hit(int line, std::string rule, std::string detail)
    {
        if (seen.emplace(line, rule).second)
            out.push_back(
                {path, line, std::move(rule), std::move(detail)});
    }
};

void
runTokenRules(const std::vector<Token> &toks, RuleSink &sink)
{
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    static const std::set<std::string> kRandom = {
        "rand", "srand", "rand_r", "drand48", "random_device"};
    static const std::set<std::string> kHostClock = {
        "steady_clock", "system_clock", "high_resolution_clock",
        "clock_gettime", "gettimeofday", "timespec_get", "get_id"};
    static const std::set<std::string> kOrderedAssoc = {
        "map", "set", "multimap", "multiset", "less"};
    static const std::set<std::string> kPrintfFamily = {
        "printf", "fprintf", "vprintf", "vfprintf", "puts",
        "fputs",  "putchar", "fputc",   "putc",     "fwrite"};
    static const std::set<std::string> kProcessStreams = {
        "cout", "cerr", "clog", "stdout", "stderr"};

    const bool suite_scope = suiteIoScope(sink.path);

    const auto prev = [&](std::size_t i) -> const std::string & {
        static const std::string empty;
        return i > 0 ? toks[i - 1].text : empty;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        const int line = toks[i].line;

        if (kUnordered.count(t)) {
            sink.hit(line, "unordered-container",
                     "'" + t +
                         "': iteration order is unspecified and varies "
                         "across standard libraries — result-bearing "
                         "folds must use std::map/std::set or sorted "
                         "vectors");
        }
        if (t == "hash" && prev(i) == "::" && i >= 2 &&
            toks[i - 2].text == "std") {
            sink.hit(line, "unordered-container",
                     "'std::hash': hash values are "
                     "implementation-defined; derive stable ids "
                     "explicitly (cf. llm::BackendId's FNV-1a)");
        }
        if (kRandom.count(t)) {
            sink.hit(line, "raw-random",
                     "'" + t +
                         "': randomness outside sim::Rng cannot be "
                         "reproduced from an episode seed — fork a "
                         "seeded stream instead");
        }
        // Direct process-stream I/O inside a benchmark suite bypasses
        // the SuiteContext sink, so the bytes escape the per-suite log
        // the fleet captures (and byte-compares across worker counts).
        // Member calls (ctx.printf, stream.fputs) are
        // the sanctioned sinks and don't fire; std::printf does (its
        // previous token is '::').
        if (suite_scope) {
            if (kPrintfFamily.count(t) && prev(i) != "." &&
                prev(i) != "->" && i + 1 < toks.size() &&
                toks[i + 1].text == "(") {
                sink.hit(line, "suite-io",
                         "'" + t +
                             "': direct stdio write in a suite escapes "
                             "the per-suite capture — route output "
                             "through SuiteContext (ctx.printf / "
                             "ctx.eprintf / ctx.write)");
            }
            if (kProcessStreams.count(t) && prev(i) != "." &&
                prev(i) != "->") {
                sink.hit(line, "suite-io",
                         "'" + t +
                             "': process-global stream in a suite "
                             "escapes the per-suite capture — use the "
                             "SuiteContext sinks (ctx.out() / "
                             "ctx.err())");
            }
        }

        if (kHostClock.count(t)) {
            sink.hit(line, "host-clock",
                     "'" + t +
                         "': host time/thread identity leaks scheduling "
                         "into results — simulated paths use the episode "
                         "clock; host diagnostics go through "
                         "stats::hostNow() (src/stats/host_clock.h)");
        }

        // std::map</set</less< with a pointer-typed first argument.
        if (kOrderedAssoc.count(t) && prev(i) == "::" &&
            i + 1 < toks.size() && toks[i + 1].text == "<") {
            int depth = 1;
            for (std::size_t j = i + 2;
                 j < toks.size() && depth > 0; ++j) {
                const std::string &a = toks[j].text;
                if (depth == 1 && a == ",")
                    break; // key type ends; value type may hold pointers
                if (depth == 1 && a == "*") {
                    sink.hit(line, "pointer-keyed-order",
                             "'std::" + t +
                                 "' keyed on a pointer: pointer order is "
                                 "allocation order and changes run to "
                                 "run — key on a stable id instead");
                    break;
                }
                depth += angleDelta(a);
                if (a == "(" || a == "[")
                    break; // not a template argument list after all
            }
        }

        // Compound accumulation inside a range-for over an unordered
        // container: even a deterministic element set sums in
        // bucket order, and float addition is not associative.
        if (t == "for" && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            const std::size_t close = matchDelim(toks, i + 1, "(", ")");
            std::size_t colon = toks.size();
            int depth = 0;
            for (std::size_t j = i + 1; j < close; ++j) {
                if (toks[j].text == "(")
                    ++depth;
                else if (toks[j].text == ")")
                    --depth;
                else if (toks[j].text == ":" && depth == 1) {
                    colon = j;
                    break;
                }
            }
            if (colon == toks.size())
                continue; // not a range-for
            bool unordered_range = false;
            for (std::size_t j = colon + 1; j < close; ++j)
                if (toks[j].text.rfind("unordered_", 0) == 0)
                    unordered_range = true;
            if (!unordered_range || close + 1 >= toks.size())
                continue;
            std::size_t body_end;
            if (toks[close + 1].text == "{") {
                body_end = matchDelim(toks, close + 1, "{", "}");
            } else {
                body_end = close + 1;
                while (body_end < toks.size() &&
                       toks[body_end].text != ";")
                    ++body_end;
            }
            for (std::size_t j = close + 1;
                 j < body_end && j < toks.size(); ++j) {
                if (toks[j].text == "+=" || toks[j].text == "-=")
                    sink.hit(toks[j].line, "float-accum-unordered",
                             "accumulation inside a range-for over an "
                             "unordered container: the sum depends on "
                             "hash-bucket order — iterate a "
                             "deterministic container");
            }
        }
    }
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

} // namespace

std::string
formatFinding(const Finding &finding)
{
    std::ostringstream out;
    out << finding.file << ":" << finding.line << ": " << finding.rule
        << ": " << finding.detail;
    return out.str();
}

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = {
        "float-accum-unordered", "host-clock", "pointer-keyed-order",
        "raw-random", "suite-io", "unordered-container"};
    return names;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    std::vector<Token> tokens;
    AllowMap allows;
    std::vector<Finding> malformed;
    lexSource(path, content, tokens, allows, malformed);

    RuleSink sink{path, {}, {}};
    runTokenRules(tokens, sink);

    std::vector<Finding> findings = std::move(malformed);
    const auto suppressed = [&](const Finding &f) {
        for (const int at : {f.line, f.line - 1}) {
            const auto it = allows.find(at);
            if (it != allows.end() && it->second.count(f.rule))
                return true;
        }
        return false;
    };
    for (auto &f : sink.out)
        if (!suppressed(f))
            findings.push_back(std::move(f));

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    return findings;
}

std::vector<Finding>
lintFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {{path, 0, "lint-io", "cannot read file"}};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintSource(path, buffer.str());
}

std::vector<Finding>
lintTree(const std::vector<std::string> &roots, const TreeOptions &options)
{
    std::vector<std::string> excludes = options.exclude_substrings;
    excludes.push_back("lint_fixtures");

    const auto excluded = [&](const std::string &path) {
        for (const auto &sub : excludes)
            if (path.find(sub) != std::string::npos)
                return true;
        return false;
    };

    std::vector<Finding> findings;
    std::vector<std::string> files;
    for (const auto &root : roots) {
        std::error_code ec;
        if (excluded(root))
            continue;
        if (fs::is_regular_file(root, ec)) {
            if (!excluded(root))
                files.push_back(root);
            continue;
        }
        if (!fs::is_directory(root, ec)) {
            // A vanished root must not lint vacuously clean.
            findings.push_back(
                {root, 0, "lint-io", "root is not a file or directory"});
            continue;
        }
        for (auto it = fs::recursive_directory_iterator(root, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_regular_file(ec) && isSourceFile(it->path())) {
                const std::string path = it->path().string();
                if (!excluded(path))
                    files.push_back(path);
            }
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    for (const auto &file : files) {
        auto file_findings = lintFile(file);
        findings.insert(findings.end(),
                        std::make_move_iterator(file_findings.begin()),
                        std::make_move_iterator(file_findings.end()));
    }
    return findings;
}

} // namespace ebs::lint
