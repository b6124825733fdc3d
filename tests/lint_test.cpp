#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ebs_lint/lint_core.h"

/**
 * Tests for tools/ebs_lint: every rule fires on its fixture at the
 * exact (file, line, rule) expected, suppressed variants stay silent,
 * malformed suppressions are themselves findings, and the real source
 * tree lints clean (the same invariant the `ebs_lint_tree` ctest
 * enforces through the CLI).
 *
 * Fixtures live in tests/lint_fixtures/ and are data, not code: the
 * test CMake glob only compiles *_test.cpp, and lintTree() always
 * excludes the fixture directory so the corpus can violate every rule
 * without tripping the tree gate.
 */

namespace {

using ebs::lint::Finding;
using ebs::lint::lintFile;
using ebs::lint::lintSource;
using ebs::lint::lintTree;
using ebs::lint::TreeOptions;

std::string
root(const std::string &relative)
{
    return std::string(EBS_SOURCE_ROOT) + "/" + relative;
}

std::string
fixture(const std::string &name)
{
    return root("tests/lint_fixtures/" + name);
}

/** (line, rule) pairs of a finding list, for compact assertions. */
std::vector<std::pair<int, std::string>>
lineRules(const std::vector<Finding> &findings)
{
    std::vector<std::pair<int, std::string>> out;
    for (const auto &f : findings)
        out.emplace_back(f.line, f.rule);
    return out;
}

std::string
joined(const std::vector<Finding> &findings)
{
    std::string out;
    for (const auto &f : findings)
        out += ebs::lint::formatFinding(f) + "\n";
    return out;
}

using LineRules = std::vector<std::pair<int, std::string>>;

TEST(LintFormat, FileLineRuleDetail)
{
    const Finding f{"src/a.cpp", 12, "raw-random", "no dice"};
    EXPECT_EQ(ebs::lint::formatFinding(f),
              "src/a.cpp:12: raw-random: no dice");
}

TEST(LintFormat, RuleNamesAreSortedAndComplete)
{
    const std::vector<std::string> expected = {
        "float-accum-unordered", "host-clock", "pointer-keyed-order",
        "raw-random", "suite-io", "unordered-container"};
    EXPECT_EQ(ebs::lint::ruleNames(), expected);
}

TEST(LintFixtures, UnorderedContainerAndStdHash)
{
    const auto findings = lintFile(fixture("unordered.cpp"));
    EXPECT_EQ(lineRules(findings),
              (LineRules{{3, "unordered-container"},
                         {6, "unordered-container"},
                         {7, "unordered-container"}}))
        << joined(findings);
    for (const auto &f : findings)
        EXPECT_EQ(f.file, fixture("unordered.cpp"));
}

TEST(LintFixtures, RawRandom)
{
    const auto findings = lintFile(fixture("raw_random.cpp"));
    EXPECT_EQ(lineRules(findings), (LineRules{{6, "raw-random"},
                                              {7, "raw-random"},
                                              {8, "raw-random"}}))
        << joined(findings);
}

TEST(LintFixtures, HostClock)
{
    const auto findings = lintFile(fixture("host_clock.cpp"));
    EXPECT_EQ(lineRules(findings),
              (LineRules{{6, "host-clock"}, {7, "host-clock"}}))
        << joined(findings);
}

TEST(LintFixtures, ObsHostStamps)
{
    // The obs-layer shape: reading a clock inside a trace sink is the
    // violation; receiving the stamp as an argument is clean.
    const auto findings = lintFile(fixture("obs_stamp.cpp"));
    EXPECT_EQ(lineRules(findings), (LineRules{{8, "host-clock"}}))
        << joined(findings);
}

TEST(LintFixtures, PointerKeyedMapOnly)
{
    // Line 8 keys a map on a pointer; line 9's map merely *holds*
    // pointers behind a string key and must not be flagged.
    const auto findings = lintFile(fixture("pointer_key.cpp"));
    EXPECT_EQ(lineRules(findings),
              (LineRules{{8, "pointer-keyed-order"}}))
        << joined(findings);
}

TEST(LintFixtures, FloatAccumulationInUnorderedRangeFor)
{
    // The container hits on lines 4 and 9 are suppressed in the
    // fixture; only the `+=` inside the range-for body remains.
    const auto findings = lintFile(fixture("float_accum.cpp"));
    EXPECT_EQ(lineRules(findings),
              (LineRules{{10, "float-accum-unordered"}}))
        << joined(findings);
}

TEST(LintFixtures, SuiteIoInBenchScope)
{
    // Lines 8-11 write to the process streams directly; the ctx.printf
    // member call on line 15 and the suppressed std::puts on line 17
    // stay silent.
    const auto findings = lintFile(fixture("bench_suite_io.cpp"));
    EXPECT_EQ(lineRules(findings),
              (LineRules{{8, "suite-io"},
                         {9, "suite-io"},
                         {10, "suite-io"},
                         {11, "suite-io"}}))
        << joined(findings);
}

TEST(LintSource, SuiteIoScopedByFileName)
{
    // The same bytes fire only under a suite basename: the fleet
    // driver and the library tree keep their own stdio.
    const std::string src = "int f() { return std::printf(\"x\"); }\n";
    EXPECT_EQ(lineRules(lintSource("bench/bench_x.cpp", src)),
              (LineRules{{1, "suite-io"}}));
    EXPECT_EQ(lineRules(lintSource("bench/suite.cpp", src)),
              (LineRules{{1, "suite-io"}}));
    EXPECT_TRUE(lintSource("bench/run_all.cpp", src).empty());
    EXPECT_TRUE(lintSource("bench/fleet_plan.cpp", src).empty());
    EXPECT_TRUE(lintSource("src/core/coordinator.cpp", src).empty());
}

TEST(LintFixtures, SuppressedVariantsAreClean)
{
    const auto findings = lintFile(fixture("suppressed.cpp"));
    EXPECT_TRUE(findings.empty()) << joined(findings);
}

TEST(LintFixtures, MalformedAllowsAreFindings)
{
    const auto findings = lintFile(fixture("bad_allow.cpp"));
    EXPECT_EQ(lineRules(findings),
              (LineRules{{2, "lint-allow"}, {3, "lint-allow"}}))
        << joined(findings);
}

TEST(LintFixtures, CleanFixtureIsClean)
{
    const auto findings = lintFile(fixture("clean.cpp"));
    EXPECT_TRUE(findings.empty()) << joined(findings);
}

TEST(LintSource, StringsAndCommentsAreStripped)
{
    EXPECT_TRUE(lintSource("s.cpp",
                           "const char *s = \"std::unordered_map\";\n")
                    .empty());
    EXPECT_TRUE(lintSource("s.cpp", "// calls rand() and srand()\n")
                    .empty());
    EXPECT_TRUE(lintSource("s.cpp",
                           "/* steady_clock\n * system_clock */ int x;\n")
                    .empty());
}

TEST(LintSource, SameLineAndNextLineSuppression)
{
    EXPECT_TRUE(
        lintSource("s.cpp",
                   "int r = rand(); // EBS_LINT_ALLOW(raw-random): demo\n")
            .empty());
    EXPECT_TRUE(
        lintSource("s.cpp", "// EBS_LINT_ALLOW(raw-random): demo\n"
                            "int r = rand();\n")
            .empty());
}

TEST(LintSource, SuppressionDoesNotReachTwoLinesDown)
{
    const auto findings =
        lintSource("s.cpp", "// EBS_LINT_ALLOW(raw-random): demo\n"
                            "int a = 0;\n"
                            "int r = rand();\n");
    EXPECT_EQ(lineRules(findings), (LineRules{{3, "raw-random"}}))
        << joined(findings);
}

TEST(LintSource, SuppressionIsPerRule)
{
    // An allow for one rule must not silence a different rule on the
    // same line.
    const auto findings = lintSource(
        "s.cpp",
        "int r = rand(); // EBS_LINT_ALLOW(host-clock): wrong rule\n");
    EXPECT_EQ(lineRules(findings), (LineRules{{1, "raw-random"}}))
        << joined(findings);
}

TEST(LintSource, DuplicateHitsOnOneLineCollapse)
{
    const auto findings =
        lintSource("s.cpp", "int r = rand() + rand();\n");
    EXPECT_EQ(lineRules(findings), (LineRules{{1, "raw-random"}}))
        << joined(findings);
}

TEST(LintIo, UnreadableFileIsAFinding)
{
    const auto findings = lintFile(root("tests/no_such_file.cpp"));
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "lint-io");
    EXPECT_EQ(findings[0].line, 0);
}

TEST(LintIo, MissingRootIsAFinding)
{
    const auto findings = lintTree({root("no_such_dir")});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "lint-io");
}

TEST(LintTree, ExcludeSubstringSkipsRoot)
{
    TreeOptions options;
    options.exclude_substrings.push_back("no_such_dir");
    EXPECT_TRUE(lintTree({root("no_such_dir")}, options).empty());
}

TEST(LintTree, FixtureDirectoryIsAlwaysExcluded)
{
    // The fixture corpus violates every rule, yet linting tests/ (or
    // the fixture directory itself) reports nothing from it.
    EXPECT_TRUE(lintTree({root("tests/lint_fixtures")}).empty());
}

TEST(LintTree, ObsSubsystemNeedsNoAllows)
{
    // src/obs receives host stamps from its callers, so it must lint
    // clean with zero suppressions of its own — the one sanctioned
    // host-clock allow line stays in stats/host_clock.h.
    EXPECT_TRUE(lintTree({root("src/obs")}).empty());
    int files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(root("src/obs"))) {
        if (!entry.is_regular_file())
            continue;
        ++files;
        const std::string name = entry.path().filename().string();
        std::ifstream in(entry.path());
        ASSERT_TRUE(in.good()) << name;
        std::stringstream buffer;
        buffer << in.rdbuf();
        EXPECT_EQ(buffer.str().find("EBS_LINT_ALLOW"), std::string::npos)
            << name << " must not carry lint suppressions";
    }
    EXPECT_GE(files, 4); // json.{h,cpp} and trace.{h,cpp} at least
}

TEST(LintTree, ShippedTreeLintsClean)
{
    // The same gate the `ebs_lint_tree` ctest applies via the CLI: the
    // real sources carry no unsuppressed determinism violations.
    const auto findings =
        lintTree({root("src"), root("bench"), root("tests")});
    EXPECT_TRUE(findings.empty()) << joined(findings);
}

TEST(SourceTree, EveryHeaderHasANonTestIncluder)
{
    // A src/ module that only tests include is code the program never
    // runs. Every src/**/*.h must be included by a file under src/
    // (other than its own .cpp), bench/, examples/ or tools/.
    namespace fs = std::filesystem;
    std::map<std::string, std::set<std::string>> includers;
    for (const char *dir : {"src", "bench", "examples", "tools"}) {
        for (const auto &entry : fs::recursive_directory_iterator(root(dir))) {
            const std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() || (ext != ".h" && ext != ".cpp"))
                continue;
            const std::string file =
                fs::relative(entry.path(), root("")).generic_string();
            std::ifstream in(entry.path());
            std::string line;
            while (std::getline(in, line)) {
                std::istringstream tokens(line);
                std::string directive, target;
                if (tokens >> directive >> target && directive == "#include" &&
                    target.size() > 2 && target.front() == '"')
                    includers[target.substr(1, target.find('"', 1) - 1)]
                        .insert(file);
            }
        }
    }

    std::vector<std::string> orphans;
    for (const auto &entry : fs::recursive_directory_iterator(root("src"))) {
        if (!entry.is_regular_file() || entry.path().extension() != ".h")
            continue;
        const std::string header =
            fs::relative(entry.path(), root("src")).generic_string();
        const std::string own_cpp =
            "src/" + header.substr(0, header.size() - 2) + ".cpp";
        std::set<std::string> others = includers[header];
        others.erase(own_cpp);
        if (others.empty())
            orphans.push_back(header);
    }
    EXPECT_TRUE(orphans.empty())
        << "headers with no includer outside tests/: "
        << ::testing::PrintToString(orphans);
}

} // namespace
