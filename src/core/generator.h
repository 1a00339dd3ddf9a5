/**
 * @file
 * The adaptive statement generator — the paper's core contribution.
 *
 * The generator produces random SQL statements whose every optional
 * element is a *feature* guarded by a FeatureGate (paper Listing 2:
 * shouldGenerate/generateFeature). With a FeedbackGate the gate is the
 * Bayesian validity-feedback tracker and the generator *learns* the
 * target dialect; with a ProfileGate (core/baseline.h) the gate is an
 * omniscient capability matrix and the generator becomes the
 * "SQLancer"-style hand-written baseline the paper compares against.
 *
 * Expression generation is type-directed. The abstract property
 * PROP_UNTYPED_EXPR controls whether the generator may emit ill-typed
 * expressions: dynamically-typed dialects execute them happily (and the
 * property survives), strictly-typed dialects reject them (and the
 * property is learned away) — reproducing the paper's treatment of
 * typing discipline as a learnable feature. Typed-argument composite
 * features (SIN1INT, SIN1STRING) are recorded per function argument.
 *
 * The expression depth follows the paper's schedule: start at 1,
 * increase every `depthStep` statements up to `maxDepth` (default 3).
 */
#ifndef SQLPP_CORE_GENERATOR_H
#define SQLPP_CORE_GENERATOR_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/feature.h"
#include "core/schema_model.h"
#include "sqlir/ast.h"
#include "util/rng.h"

namespace sqlpp {

class GuidedSelector;

/** Decides whether a feature may currently be generated. */
class FeatureGate
{
  public:
    virtual ~FeatureGate() = default;
    /** Paper Listing 2's shouldGenerate(). */
    virtual bool allow(FeatureId id) const = 0;
};

/** Gate that allows everything (feedback-off ablation). */
class OpenGate : public FeatureGate
{
  public:
    bool allow(FeatureId) const override { return true; }
};

/** Generator tunables. */
struct GeneratorConfig
{
    uint64_t seed = 1;
    /** Expression depth cap (paper setting: 3). */
    int maxDepth = 3;
    /** Progressive depth schedule: +1 depth every depthStep statements. */
    bool progressiveDepth = true;
    uint64_t depthStep = 200;
    /** Subquery generation (Fig. 8's SQLancer++_S disables this). */
    bool enableSubqueries = true;
};

/** One generated statement plus its recorded features and model effect. */
struct GeneratedStatement
{
    std::string text;
    FeatureSet features;
    StmtKind kind = StmtKind::Select;
    bool isQuery = false;

    /** Pending schema-model effects, applied only on success (Fig. 3). */
    std::optional<ModelTable> pendingTable;
    std::optional<ModelIndex> pendingIndex;
    std::string pendingInsertTable;
    size_t pendingInsertRows = 0;
};

/**
 * A SELECT decomposed for the logic-bug oracles: a predicate-free base
 * query plus a boolean predicate over the same scope. TLP partitions
 * the predicate; NoREC counts it two ways.
 */
struct QueryShape
{
    SelectPtr base;
    ExprPtr predicate;
    FeatureSet features;
    /**
     * Bandit arms pulled while generating this shape (guided mode
     * only; empty otherwise). One entry per pull, in pull order — the
     * campaign credits these ids once the novelty of the statement is
     * known (core/guidance.h).
     */
    std::vector<FeatureId> arms;
};

/** The adaptive statement generator. */
class AdaptiveGenerator
{
  public:
    AdaptiveGenerator(GeneratorConfig config, FeatureRegistry &registry,
                      const FeatureGate &gate, SchemaModel &model);

    /**
     * Generate the next database-state statement (CREATE TABLE/INDEX/
     * VIEW, INSERT, ANALYZE), chosen by what the schema model still
     * lacks.
     */
    GeneratedStatement generateSetupStatement();

    /** Generate a full random SELECT (plan/coverage workloads). */
    GeneratedStatement generateSelect();

    /** Generate an oracle-ready query shape (see QueryShape). */
    std::optional<QueryShape> generateQueryShape();

    /**
     * Report the execution status of a generated statement: applies the
     * pending schema-model effect on success (paper Fig. 3). Validity
     * bookkeeping is the FeedbackTracker's job, not ours.
     */
    void noteExecution(const GeneratedStatement &stmt, bool success);

    /**
     * Attach a guided-generation selector: choice points become bandit
     * arms chosen by novelty reward instead of uniformly. nullptr (the
     * default) restores the exact legacy uniform behavior, consuming
     * the rng stream identically — unguided runs stay byte-identical.
     */
    void setGuidance(GuidedSelector *guide) { guide_ = guide; }

    /** Statements generated so far (drives the depth schedule). */
    uint64_t generated() const { return generated_; }

    /** Current depth per the progressive schedule. */
    int currentDepth() const;

    Rng &rng() { return rng_; }
    const GeneratorConfig &config() const { return config_; }

  private:
    /** Typed column visible to expression generation. */
    struct ScopeColumn
    {
        std::string binding;
        std::string name;
        DataType type;
    };
    using ScopeColumns = std::vector<ScopeColumn>;

    bool allowName(const std::string &feature_name) const;
    /** shouldGenerate + generateFeature in one step (Listing 2). */
    bool use(const std::string &feature_name, FeatureKind kind,
             FeatureSet &features) const;
    /** Gate + coin flip for optional elements. */
    bool maybe(const std::string &feature_name, FeatureKind kind,
               double probability, FeatureSet &features);

    /**
     * Pick an index among `options`: the guided selector chooses by
     * arm name when attached, else uniformly via rng_.below — exactly
     * the draw the legacy call sites made, so unguided streams are
     * unchanged. `name_of` maps a candidate to its arm name.
     */
    template <typename T, typename NameOf>
    size_t pickArm(const std::vector<T> &options, NameOf &&name_of)
    {
        if (guide_ == nullptr)
            return rng_.below(options.size());
        std::vector<std::string> names;
        names.reserve(options.size());
        for (const T &option : options)
            names.push_back(name_of(option));
        return chooseGuided(names);
    }

    /** Guided pick + pull recording into the current arm sink. */
    size_t chooseGuided(const std::vector<std::string> &names);

    GeneratedStatement genCreateTable();
    GeneratedStatement genCreateIndex();
    GeneratedStatement genCreateView();
    GeneratedStatement genInsert();
    GeneratedStatement genAnalyze();

    /** Build FROM/joins; fills scope columns; returns a SELECT shell. */
    SelectPtr genFromClause(FeatureSet &features, ScopeColumns &scope,
                            bool allow_subquery_from);

    ExprPtr genExpr(DataType target, int depth, const ScopeColumns &scope,
                    FeatureSet &features, bool loose);
    /**
     * Cheap boolean over the scope (comparisons of columns/literals,
     * no subqueries or functions) for positions that are evaluated per
     * joined row pair or without subquery support: ON conditions,
     * partial-index and view predicates.
     */
    ExprPtr genSimpleBool(const ScopeColumns &scope,
                          FeatureSet &features);
    ExprPtr genLeaf(DataType target, const ScopeColumns &scope,
                    FeatureSet &features, bool loose);
    ExprPtr genLiteral(DataType type, FeatureSet &features);
    ExprPtr genFunctionCall(DataType target, int depth,
                            const ScopeColumns &scope,
                            FeatureSet &features, bool loose);
    ExprPtr genSubqueryExpr(DataType target, int depth,
                            const ScopeColumns &scope,
                            FeatureSet &features, bool loose);
    DataType randomType(FeatureSet &features);
    DataType randomSupportedType();

    GeneratorConfig config_;
    FeatureRegistry &registry_;
    const FeatureGate &gate_;
    SchemaModel &model_;
    Rng rng_;
    uint64_t generated_ = 0;
    /** Fresh alias counter for derived tables / subqueries. */
    uint64_t alias_counter_ = 0;
    /** Guided-generation selector; nullptr = legacy uniform choices. */
    GuidedSelector *guide_ = nullptr;
    /** Where pulled arms are recorded (QueryShape::arms) while set. */
    std::vector<FeatureId> *arm_sink_ = nullptr;
};

} // namespace sqlpp

#endif // SQLPP_CORE_GENERATOR_H
