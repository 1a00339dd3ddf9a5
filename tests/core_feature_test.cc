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
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/feature.h"
#include "dialect/profile.h"
#include "engine/functions.h"

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

TEST(FeatureUniverseTest, MatchesGoldenFile)
{
    const std::string path =
        std::string(SQLPP_GOLDEN_DIR) + "/feature_universe.txt";
    std::string rendered = renderFeatureUniverse();

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
        << "feature universe diverged from "
           "tests/golden/feature_universe.txt; if the change is "
           "intentional, rerun with SQLPP_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace sqlpp
