/**
 * @file
 * Feature registry tests, including the Table 1 taxonomy counts, and
 * the feature-universe golden: every registered feature's id, name and
 * kind, every composite typed-argument name, and what the baseline
 * gate allows on each profile, pinned in
 * tests/golden/feature_universe.txt. Feature ids key the feedback
 * tracker, dossiers and checkpoints, so a silent reordering or
 * renaming breaks all three. To change the universe deliberately,
 * regenerate the file:
 *
 *   SQLPP_UPDATE_GOLDEN=1 ./core_feature_test
 *
 * The same switch regenerates tests/golden/enum_names.txt, which pins
 * every named enum's values and printed names, each fault's
 * description and family, and what each name parser makes of every
 * printed name, alias and junk string. Fault names key dossiers and
 * the fault matrix; the other names appear in traces, metrics, /status
 * and command-line options.
 */
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/feature.h"
#include "core/guidance.h"
#include "core/progress.h"
#include "dialect/profile.h"
#include "engine/executor.h"
#include "engine/faults.h"
#include "engine/functions.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {
namespace {

TEST(FeatureRegistryTest, InternIsIdempotent)
{
    FeatureRegistry registry;
    FeatureId a = registry.intern("X_TEST", FeatureKind::Property);
    FeatureId b = registry.intern("X_TEST", FeatureKind::Property);
    EXPECT_EQ(a, b);
    EXPECT_EQ(registry.name(a), "X_TEST");
    EXPECT_EQ(registry.kind(a), FeatureKind::Property);
}

TEST(FeatureRegistryTest, FindUnknownReturnsSentinel)
{
    FeatureRegistry registry;
    EXPECT_EQ(registry.find("NOT_A_FEATURE"),
              static_cast<FeatureId>(-1));
    EXPECT_NE(registry.find("STMT_SELECT"), static_cast<FeatureId>(-1));
}

TEST(FeatureRegistryTest, Table1Counts)
{
    FeatureRegistry registry;
    // Paper Table 1: 6 statements, 58 functions, 3 data types. We count
    // the generator-visible statements (drop statements are platform
    // plumbing, not generated features).
    EXPECT_EQ(registry.ofKind(FeatureKind::Statement).size(), 6u);
    EXPECT_EQ(registry.ofKind(FeatureKind::Function).size(), 58u);
    EXPECT_EQ(registry.ofKind(FeatureKind::DataType).size(), 3u);
    // Operators: 26 binary + 10 unary + 11 constructs = 47 (Table 1).
    EXPECT_EQ(registry.ofKind(FeatureKind::Operator).size(), 47u);
    // Clauses & keywords: 6 joins + 17 clause/keyword flags.
    EXPECT_EQ(registry.ofKind(FeatureKind::Clause).size(), 23u);
}

TEST(FeatureNamesTest, CanonicalSpellings)
{
    EXPECT_EQ(features::stmt(StmtKind::CreateIndex),
              "STMT_CREATE_INDEX");
    EXPECT_EQ(features::join(JoinType::Right), "JOIN_RIGHT");
    EXPECT_EQ(features::binaryOp(BinaryOp::NullSafeEq), "OP_<=>");
    EXPECT_EQ(features::unaryOp(UnaryOp::Not), "OP_NOT");
    EXPECT_EQ(features::function("SIN"), "FN_SIN");
    EXPECT_EQ(features::dataType(DataType::Bool), "TYPE_BOOLEAN");
}

TEST(FeatureNamesTest, CompositeArgFeaturesMatchPaperNaming)
{
    // Paper Fig. 5: SIN1INT = first argument of SIN has integer type.
    EXPECT_EQ(features::functionArg("SIN", 0, DataType::Int), "SIN1INT");
    EXPECT_EQ(features::functionArg("SIN", 0, DataType::Text),
              "SIN1STRING");
    EXPECT_EQ(features::functionArg("NULLIF", 1, DataType::Bool),
              "NULLIF2BOOL");
}

TEST(FeatureRegistryTest, DescribeRendersSortedNames)
{
    FeatureRegistry registry;
    FeatureSet set;
    set.insert(registry.intern("FN_SIN", FeatureKind::Function));
    set.insert(registry.intern("OP_NOT", FeatureKind::Operator));
    std::string rendered = registry.describe(set);
    EXPECT_NE(rendered.find("FN_SIN"), std::string::npos);
    EXPECT_NE(rendered.find("OP_NOT"), std::string::npos);
}

TEST(FeatureRegistryTest, CompositeFeaturesInternedOnDemand)
{
    FeatureRegistry registry;
    size_t before = registry.size();
    registry.intern(features::functionArg("ABS", 0, DataType::Text),
                    FeatureKind::Property);
    EXPECT_EQ(registry.size(), before + 1);
}

const char *
kindName(FeatureKind kind)
{
    switch (kind) {
      case FeatureKind::Statement: return "Statement";
      case FeatureKind::Clause: return "Clause";
      case FeatureKind::Function: return "Function";
      case FeatureKind::Operator: return "Operator";
      case FeatureKind::DataType: return "DataType";
      case FeatureKind::Property: return "Property";
    }
    return "?";
}

std::string
renderFeatureUniverse()
{
    FeatureRegistry registry;
    std::vector<std::string> names;
    std::string out = "# registry: id name kind\n";
    for (FeatureId id = 0; id < registry.size(); ++id) {
        names.push_back(registry.name(id));
        out += std::to_string(id) + " " + registry.name(id) + " " +
               kindName(registry.kind(id)) + "\n";
    }
    out += "# composite: function argument type name\n";
    for (const std::string &fn : FunctionRegistry::instance().names()) {
        for (size_t arg = 0; arg < 3; ++arg) {
            for (DataType type :
                 {DataType::Int, DataType::Text, DataType::Bool}) {
                std::string name = features::functionArg(fn, arg, type);
                names.push_back(name);
                out += fn + " " + std::to_string(arg + 1) + " " +
                       dataTypeName(type) + " " + name + "\n";
            }
        }
    }
    out += "# baseline gate: names each profile denies\n";
    for (const DialectProfile &profile : allDialectProfiles()) {
        ProfileGate gate(profile, registry);
        std::string denied;
        size_t allowed = 0;
        for (const std::string &name : names) {
            if (gate.allowName(name))
                ++allowed;
            else
                denied += "deny " + name + "\n";
        }
        out += "== " + profile.name + " == allows " +
               std::to_string(allowed) + " of " +
               std::to_string(names.size()) + "\n" + denied;
    }
    return out;
}

void
expectMatchesGolden(const std::string &file, const std::string &rendered)
{
    const std::string path = std::string(SQLPP_GOLDEN_DIR) + "/" + file;
    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << "; regenerate with SQLPP_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(rendered, golden.str())
        << "output diverged from tests/golden/" << file
        << "; if the change is intentional, rerun with "
           "SQLPP_UPDATE_GOLDEN=1";
}

TEST(FeatureUniverseTest, MatchesGoldenFile)
{
    expectMatchesGolden("feature_universe.txt", renderFeatureUniverse());
}

/** The tag logMessage prints for a level ("WARN"). */
std::string
printedLogLevel(LogLevel level)
{
    std::string line;
    setLogLevel(LogLevel::Debug);
    setLogSink([&line](const std::string &text) { line = text; });
    logMessage(level, "");
    setLogSink(nullptr);
    setLogLevel(LogLevel::Warn);
    return line.substr(1, line.find(']') - 1);
}

const char *
faultFamilyName(FaultFamily family)
{
    switch (family) {
      case FaultFamily::Planner: return "planner";
      case FaultFamily::Evaluator: return "evaluator";
      case FaultFamily::Latent: return "latent";
      case FaultFamily::Isolation: return "isolation";
    }
    return "?";
}

/** One "value name" line per value of a dense enum, 0 through last. */
template <typename E, typename Name>
void
renderValues(std::string &out, const char *title, E last, Name name)
{
    out += concat("# ", title, ": value name\n");
    for (int v = 0; v <= static_cast<int>(last); ++v)
        out += concat(std::to_string(v), " ",
                      std::string(name(static_cast<E>(v))), "\n");
}

/**
 * What `parse` makes of each name, its lower-case form and three junk
 * strings: the printed name of the result, or "-" when it rejects it.
 */
template <typename Parse>
void
renderParses(std::string &out, const char *title,
             const std::vector<std::string> &names, Parse parse)
{
    std::vector<std::string> inputs;
    auto add = [&inputs](const std::string &input) {
        if (std::find(inputs.begin(), inputs.end(), input) == inputs.end())
            inputs.push_back(input);
    };
    for (const std::string &name : names) {
        add(name);
        add(toLower(name));
    }
    for (const char *junk : {"", "batch", "ucb2"})
        add(junk);
    out += concat("# ", title, ": input -> parsed\n");
    for (const std::string &input : inputs)
        out += concat("'", input, "' -> ", parse(input), "\n");
}

std::string
renderEnumNames()
{
    std::string out = "# FaultId: value name family description\n";
    for (const FaultInfo &row : faultTable())
        out += concat(std::to_string(static_cast<uint32_t>(row.value)), " ",
                      faultName(row.value), " ",
                      faultFamilyName(row.family), " ",
                      faultDescription(row.value), "\n");
    renderValues(out, "TraceEventType", TraceEventType::ShardAbandoned,
                 traceEventTypeName);
    renderValues(out, "ShardState", ShardState::Abandoned,
                 shardStateName);
    renderValues(out, "MetricKind", MetricKind::Timer, metricKindName);
    renderValues(out, "ErrorCode", ErrorCode::BudgetExhausted,
                 errorCodeName);
    renderValues(out, "LogLevel", LogLevel::Silent, printedLogLevel);
    renderValues(out, "GuidanceMode", GuidanceMode::Thompson,
                 guidanceModeName);
    renderValues(out, "ExecMode", ExecMode::Reference, execModeName);
    renderValues(out, "DataType", DataType::Bool, dataTypeName);

    std::vector<std::string> names;
    for (int v = 0; v <= static_cast<int>(LogLevel::Silent); ++v)
        names.push_back(printedLogLevel(static_cast<LogLevel>(v)));
    names.insert(names.end(), {"quiet", "warning"});
    renderParses(out, "logLevelFromName", names,
                 [](const std::string &input) -> std::string {
                     auto level = logLevelFromName(input);
                     return level ? printedLogLevel(*level) : "-";
                 });

    names = {};
    for (int v = 0; v <= static_cast<int>(GuidanceMode::Thompson); ++v)
        names.push_back(guidanceModeName(static_cast<GuidanceMode>(v)));
    names.insert(names.end(), {"none", "ucb1", "ts"});
    renderParses(out, "parseGuidanceMode", names,
                 [](const std::string &input) -> std::string {
                     GuidanceMode mode;
                     return parseGuidanceMode(input, mode)
                                ? guidanceModeName(mode)
                                : "-";
                 });

    names = {execModeName(ExecMode::Optimized),
             execModeName(ExecMode::Reference)};
    renderParses(out, "parseExecMode", names,
                 [](const std::string &input) -> std::string {
                     ExecMode mode;
                     return parseExecMode(input, mode) ? execModeName(mode)
                                                       : "-";
                 });

    names = {};
    for (int v = 0; v <= static_cast<int>(DataType::Bool); ++v)
        names.push_back(dataTypeName(static_cast<DataType>(v)));
    names.insert(names.end(),
                 {"INT", "BIGINT", "VARCHAR", "STRING", "CHAR", "BOOL"});
    renderParses(out, "parseDataType", names,
                 [](const std::string &input) -> std::string {
                     DataType type;
                     return parseDataType(input, type) ? dataTypeName(type)
                                                       : "-";
                 });
    return out;
}

TEST(EnumNamesTest, MatchesGoldenFile)
{
    expectMatchesGolden("enum_names.txt", renderEnumNames());
}

TEST(EnumNamesTest, ParseExecModeIgnoresCase)
{
    ExecMode mode = ExecMode::Reference;
    ASSERT_TRUE(parseExecMode("OPTIMIZED", mode));
    EXPECT_EQ(mode, ExecMode::Optimized);
    ASSERT_TRUE(parseExecMode("Reference", mode));
    EXPECT_EQ(mode, ExecMode::Reference);
}

} // namespace
} // namespace sqlpp
