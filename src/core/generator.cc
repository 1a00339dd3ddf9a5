#include "core/generator.h"

#include <algorithm>

#include "core/guidance.h"
#include "engine/eval.h"
#include "engine/functions.h"
#include "sqlir/printer.h"
#include "util/metrics.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/** Database-state limits (paper: up to 2 tables and 1 view). */
constexpr size_t kMaxTables = 2;
constexpr size_t kMaxViews = 1;
constexpr size_t kMaxColumnsPerTable = 4;
constexpr size_t kMaxRowsPerInsert = 3;
/**
 * Stop inserting into tables the model believes have this many rows;
 * bounds join sizes and correlated-subquery cost, like the small
 * databases SQLancer deliberately works with.
 */
constexpr size_t kMaxRowsPerTable = 10;
constexpr size_t kMaxJoins = 2;
/** Probability of attempting a loose (possibly ill-typed) node. */
constexpr double kLooseTypeProbability = 0.25;

} // namespace

size_t
AdaptiveGenerator::chooseGuided(const std::vector<std::string> &names)
{
    FeatureId chosen = static_cast<FeatureId>(-1);
    size_t index = guide_->choose(names, &chosen);
    if (arm_sink_ != nullptr && chosen != static_cast<FeatureId>(-1))
        arm_sink_->push_back(chosen);
    return index;
}

AdaptiveGenerator::AdaptiveGenerator(GeneratorConfig config,
                                     FeatureRegistry &registry,
                                     const FeatureGate &gate,
                                     SchemaModel &model)
    : config_(config), registry_(registry), gate_(gate), model_(model),
      rng_(config.seed)
{
}

int
AdaptiveGenerator::currentDepth() const
{
    if (!config_.progressiveDepth)
        return config_.maxDepth;
    int depth = 1 + static_cast<int>(generated_ / config_.depthStep);
    return std::min(depth, config_.maxDepth);
}

bool
AdaptiveGenerator::allowName(const std::string &feature_name) const
{
    FeatureId id = registry_.find(feature_name);
    if (id == static_cast<FeatureId>(-1))
        return true; // not yet interned: nothing learned against it
    return gate_.allow(id);
}

bool
AdaptiveGenerator::use(const std::string &feature_name, FeatureKind kind,
                       FeatureSet &features) const
{
    FeatureId id = registry_.intern(feature_name, kind);
    if (!gate_.allow(id)) {
        SQLPP_COUNT("generator.gate.denied");
        return false;
    }
    features.insert(id);
    return true;
}

bool
AdaptiveGenerator::maybe(const std::string &feature_name, FeatureKind kind,
                         double probability, FeatureSet &features)
{
    if (!allowName(feature_name))
        return false;
    if (!rng_.chance(probability))
        return false;
    return use(feature_name, kind, features);
}

DataType
AdaptiveGenerator::randomSupportedType()
{
    std::vector<DataType> candidates;
    for (const DataTypeInfo &row : dataTypeTable()) {
        if (allowName(row.feature))
            candidates.push_back(row.value);
    }
    if (candidates.empty())
        return DataType::Int;
    return candidates[rng_.below(candidates.size())];
}

DataType
AdaptiveGenerator::randomType(FeatureSet &features)
{
    DataType type = randomSupportedType();
    use(features::dataType(type), FeatureKind::DataType, features);
    return type;
}

// ---------------------------------------------------------------------
// Literals and leaves
// ---------------------------------------------------------------------

ExprPtr
AdaptiveGenerator::genLiteral(DataType type, FeatureSet &features)
{
    use(features::dataType(type), FeatureKind::DataType, features);
    if (rng_.chance(0.12))
        return std::make_unique<LiteralExpr>(Value::null());
    switch (type) {
      case DataType::Int: {
        // Small values collide with column data often, which is what
        // comparison predicates need to be selective-but-not-empty.
        int64_t value = rng_.chance(0.85) ? rng_.range(-4, 9)
                                          : rng_.range(-1000000, 1000000);
        return std::make_unique<LiteralExpr>(Value::integer(value));
      }
      case DataType::Text:
        return std::make_unique<LiteralExpr>(Value::text(rng_.text(6)));
      case DataType::Bool:
        return std::make_unique<LiteralExpr>(
            Value::boolean(rng_.coin()));
    }
    return std::make_unique<LiteralExpr>(Value::null());
}

ExprPtr
AdaptiveGenerator::genLeaf(DataType target, const ScopeColumns &scope,
                           FeatureSet &features, bool loose)
{
    // Columns of the target type are preferred; a type-mismatched
    // column is only ever produced in loose mode, and then the
    // PROP_UNTYPED_EXPR feature is recorded so strict dialects can
    // learn the discipline away.
    std::vector<const ScopeColumn *> matching;
    std::vector<const ScopeColumn *> other;
    for (const ScopeColumn &col : scope) {
        if (col.type == target)
            matching.push_back(&col);
        else
            other.push_back(&col);
    }
    if (loose && !other.empty() && rng_.chance(0.3)) {
        use(features::kUntypedExpr, FeatureKind::Property, features);
        const ScopeColumn *col = other[rng_.below(other.size())];
        return std::make_unique<ColumnRefExpr>(col->binding, col->name);
    }
    if (!matching.empty() && rng_.chance(0.65)) {
        const ScopeColumn *col = matching[rng_.below(matching.size())];
        return std::make_unique<ColumnRefExpr>(col->binding, col->name);
    }
    DataType literal_type = target;
    if (loose && rng_.chance(0.4)) {
        DataType random = randomSupportedType();
        if (random != target) {
            use(features::kUntypedExpr, FeatureKind::Property, features);
            literal_type = random;
        }
    }
    return genLiteral(literal_type, features);
}

// ---------------------------------------------------------------------
// Function calls with typed-argument composite features
// ---------------------------------------------------------------------

namespace {

DataType
specToType(TypeSpec spec, Rng &rng)
{
    switch (spec) {
      case TypeSpec::Int: return DataType::Int;
      case TypeSpec::Text: return DataType::Text;
      case TypeSpec::Bool: return DataType::Bool;
      case TypeSpec::Any:
        break;
    }
    switch (rng.below(3)) {
      case 0: return DataType::Int;
      case 1: return DataType::Text;
      default: return DataType::Bool;
    }
}

bool
returnMatches(const FunctionSig &sig, DataType target)
{
    if (sig.retSameAsArg0 || sig.ret == TypeSpec::Any)
        return true;
    switch (sig.ret) {
      case TypeSpec::Int: return target == DataType::Int;
      case TypeSpec::Text: return target == DataType::Text;
      case TypeSpec::Bool: return target == DataType::Bool;
      default: return true;
    }
}

} // namespace

ExprPtr
AdaptiveGenerator::genFunctionCall(DataType target, int depth,
                                   const ScopeColumns &scope,
                                   FeatureSet &features, bool loose)
{
    // Collect allowed scalar functions whose return type fits.
    std::vector<const FunctionImpl *> candidates;
    const FunctionRegistry &fns = FunctionRegistry::instance();
    for (const std::string &name : fns.names()) {
        if (isAggregateFunction(name))
            continue;
        if (!allowName(features::function(name)))
            continue;
        const FunctionImpl *impl = fns.find(name);
        if (impl != nullptr && returnMatches(impl->sig, target))
            candidates.push_back(impl);
    }
    if (candidates.empty())
        return genLeaf(target, scope, features, loose);
    const FunctionImpl *impl = candidates[rng_.below(candidates.size())];
    use(features::function(impl->sig.name), FeatureKind::Function,
        features);

    size_t arg_count = impl->sig.minimumArgs();
    if (impl->sig.variadic && rng_.coin())
        arg_count += rng_.below(2) + 1;

    std::vector<ExprPtr> args;
    // All TypeSpec::Any positions share one type so that polymorphic
    // functions (NULLIF, COALESCE, GREATEST) type-check on strict
    // dialects; when the function returns its first argument's type the
    // shared type must be the target itself. Loose mode may still break
    // the agreement below.
    DataType shared_any_type = impl->sig.retSameAsArg0
                                   ? target
                                   : randomSupportedType();
    for (size_t i = 0; i < arg_count; ++i) {
        size_t spec_index =
            impl->sig.args.empty()
                ? 0
                : std::min(i, impl->sig.args.size() - 1);
        TypeSpec spec = impl->sig.args.empty()
                            ? TypeSpec::Any
                            : impl->sig.args[spec_index];
        DataType arg_type =
            spec == TypeSpec::Any ? shared_any_type
                                  : specToType(spec, rng_);
        if (loose && spec != TypeSpec::Any && rng_.chance(0.5)) {
            // Deliberate mismatch: this is how SIN1STRING gets probed.
            DataType mismatched = randomSupportedType();
            if (mismatched != arg_type) {
                arg_type = mismatched;
                use(features::kUntypedExpr, FeatureKind::Property,
                    features);
            }
        }
        // The composite typed-argument feature can veto this choice
        // (e.g. SIN1STRING learned as unsupported on PostgreSQL).
        std::string composite =
            features::functionArg(impl->sig.name, i, arg_type);
        if (!allowName(composite)) {
            arg_type = specToType(spec, rng_);
            composite =
                features::functionArg(impl->sig.name, i, arg_type);
            if (!allowName(composite))
                return genLeaf(target, scope, features, loose);
        }
        use(composite, FeatureKind::Property, features);
        args.push_back(
            genExpr(arg_type, depth - 1, scope, features, loose));
    }
    return std::make_unique<FunctionExpr>(impl->sig.name,
                                          std::move(args));
}

// ---------------------------------------------------------------------
// Subquery expressions
// ---------------------------------------------------------------------

ExprPtr
AdaptiveGenerator::genSubqueryExpr(DataType target, int depth,
                                   const ScopeColumns &scope,
                                   FeatureSet &features, bool loose)
{
    auto table_name = model_.randomTable(rng_, /*include_views=*/true);
    if (!table_name.has_value() ||
        !use(features::kSubqueryExpr, FeatureKind::Clause, features)) {
        return genLeaf(target, scope, features, loose);
    }
    const ModelTable *table = model_.table(*table_name);
    std::string alias = "sq" + std::to_string(alias_counter_++);

    // Correlated subqueries re-execute per outer row; keep them the
    // minority so query cost stays bounded (uncorrelated ones are
    // cached by the engine).
    ScopeColumns inner_scope;
    if (rng_.chance(0.3))
        inner_scope = scope; // correlation allowed
    for (const ModelColumn &col : table->columns)
        inner_scope.push_back({alias, col.name, col.type});

    auto inner = std::make_unique<SelectStmt>();
    TableRef ref;
    ref.name = *table_name;
    ref.alias = alias;
    inner->from.push_back(std::move(ref));

    if (rng_.chance(0.5))
        inner->where = genSimpleBool(inner_scope, features);

    if (target == DataType::Bool && rng_.coin()) {
        // EXISTS / NOT EXISTS.
        SelectItem item;
        item.expr = std::make_unique<LiteralExpr>(Value::integer(1));
        inner->items.push_back(std::move(item));
        bool negated = rng_.coin();
        use(negated ? "OP_NOT_EXISTS" : "OP_EXISTS",
            FeatureKind::Operator, features);
        return std::make_unique<ExistsExpr>(std::move(inner), negated);
    }

    // Column-producing subquery: prefer a column of the target type so
    // the surrounding expression stays well-typed on strict dialects.
    std::vector<const ModelColumn *> typed;
    for (const ModelColumn &candidate : table->columns) {
        if (candidate.type == target)
            typed.push_back(&candidate);
    }
    const ModelColumn &col =
        !typed.empty()
            ? *typed[rng_.below(typed.size())]
            : table->columns[rng_.below(table->columns.size())];
    if (target == DataType::Bool) {
        // x [NOT] IN (SELECT col FROM t ...).
        SelectItem item;
        item.expr = std::make_unique<ColumnRefExpr>(alias, col.name);
        inner->items.push_back(std::move(item));
        bool negated = rng_.coin();
        use(negated ? "OP_NOT_IN_SUBQUERY" : "OP_IN_SUBQUERY",
            FeatureKind::Operator, features);
        ExprPtr operand =
            genExpr(col.type, depth - 1, scope, features, loose);
        return std::make_unique<InSubqueryExpr>(
            std::move(operand), std::move(inner), negated);
    }

    // Scalar subquery: aggregate to guarantee a single row. When no
    // column of the target type exists, bridge with a CAST so the
    // enclosing expression stays well-typed.
    SelectItem item;
    std::vector<ExprPtr> agg_args;
    agg_args.push_back(std::make_unique<ColumnRefExpr>(alias, col.name));
    const char *agg = rng_.coin() ? "MIN" : "MAX";
    use(features::function(agg), FeatureKind::Function, features);
    item.expr = std::make_unique<FunctionExpr>(agg, std::move(agg_args));
    inner->items.push_back(std::move(item));
    ExprPtr scalar =
        std::make_unique<ScalarSubqueryExpr>(std::move(inner));
    if (col.type != target) {
        use("OP_CAST", FeatureKind::Operator, features);
        scalar = std::make_unique<CastExpr>(std::move(scalar), target);
    }
    return scalar;
}

// ---------------------------------------------------------------------
// Expression generation
// ---------------------------------------------------------------------

ExprPtr
AdaptiveGenerator::genExpr(DataType target, int depth,
                           const ScopeColumns &scope,
                           FeatureSet &features, bool loose)
{
    if (depth <= 0)
        return genLeaf(target, scope, features, loose);

    // Loose mode may retarget the whole subtree to a random type.
    if (loose && rng_.chance(0.25)) {
        DataType retargeted = randomSupportedType();
        if (retargeted != target) {
            use(features::kUntypedExpr, FeatureKind::Property, features);
            target = retargeted;
        }
    }

    enum class Node
    {
        Leaf,
        Comparison,
        Logical,
        NotOp,
        IsForm,
        Between,
        InList,
        LikeOp,
        Arithmetic,
        Bitwise,
        UnaryNum,
        Concat,
        Function,
        CaseOp,
        CastOp,
        Subquery,
    };
    std::vector<Node> choices;
    choices.push_back(Node::Leaf);
    choices.push_back(Node::Function);
    choices.push_back(Node::CaseOp);
    if (allowName("OP_CAST"))
        choices.push_back(Node::CastOp);
    if (config_.enableSubqueries &&
        allowName(features::kSubqueryExpr)) {
        choices.push_back(Node::Subquery);
    }
    switch (target) {
      case DataType::Bool:
        choices.insert(choices.end(),
                       {Node::Comparison, Node::Comparison,
                        Node::Logical, Node::Logical, Node::NotOp,
                        Node::IsForm, Node::Between, Node::InList,
                        Node::LikeOp});
        break;
      case DataType::Int:
        choices.insert(choices.end(),
                       {Node::Arithmetic, Node::Arithmetic,
                        Node::Bitwise, Node::UnaryNum});
        break;
      case DataType::Text:
        choices.insert(choices.end(), {Node::Concat, Node::Concat});
        break;
    }

    Node node;
    if (guide_ == nullptr) {
        node = choices[rng_.below(choices.size())];
    } else {
        // Guided: the weighted lottery becomes a bandit pick over the
        // distinct grammar rules available at this point.
        auto rule_name = [](Node candidate) -> std::string {
            switch (candidate) {
              case Node::Leaf:
                return "RULE_EXPR_LEAF";
              case Node::Comparison:
                return "RULE_EXPR_COMPARISON";
              case Node::Logical:
                return "RULE_EXPR_LOGICAL";
              case Node::NotOp:
                return "RULE_EXPR_NOT";
              case Node::IsForm:
                return "RULE_EXPR_IS_FORM";
              case Node::Between:
                return "RULE_EXPR_BETWEEN";
              case Node::InList:
                return "RULE_EXPR_IN_LIST";
              case Node::LikeOp:
                return "RULE_EXPR_LIKE";
              case Node::Arithmetic:
                return "RULE_EXPR_ARITHMETIC";
              case Node::Bitwise:
                return "RULE_EXPR_BITWISE";
              case Node::UnaryNum:
                return "RULE_EXPR_UNARY_NUM";
              case Node::Concat:
                return "RULE_EXPR_CONCAT";
              case Node::Function:
                return "RULE_EXPR_FUNCTION";
              case Node::CaseOp:
                return "RULE_EXPR_CASE";
              case Node::CastOp:
                return "RULE_EXPR_CAST";
              case Node::Subquery:
                return "RULE_EXPR_SUBQUERY";
            }
            return "RULE_EXPR_LEAF";
        };
        std::vector<Node> unique;
        unique.reserve(choices.size());
        for (Node candidate : choices) {
            if (std::find(unique.begin(), unique.end(), candidate) ==
                unique.end()) {
                unique.push_back(candidate);
            }
        }
        node = unique[pickArm(unique, rule_name)];
    }

    switch (node) {
      case Node::Leaf:
        return genLeaf(target, scope, features, loose);
      case Node::Comparison: {
        static const BinaryOp ops[] = {
            BinaryOp::Eq,        BinaryOp::NotEq,
            BinaryOp::NotEqBang, BinaryOp::Less,
            BinaryOp::LessEq,    BinaryOp::Greater,
            BinaryOp::GreaterEq, BinaryOp::NullSafeEq,
            BinaryOp::IsDistinctFrom, BinaryOp::IsNotDistinctFrom};
        std::vector<BinaryOp> allowed;
        for (BinaryOp op : ops) {
            if (allowName(features::binaryOp(op)))
                allowed.push_back(op);
        }
        if (allowed.empty())
            return genLeaf(target, scope, features, loose);
        BinaryOp op = allowed[pickArm(allowed, [](BinaryOp candidate) {
            return features::binaryOp(candidate);
        })];
        use(features::binaryOp(op), FeatureKind::Operator, features);
        DataType operand_type = randomSupportedType();
        DataType rhs_type = operand_type;
        if (loose && rng_.chance(0.4)) {
            rhs_type = randomSupportedType();
            if (rhs_type != operand_type) {
                use(features::kUntypedExpr, FeatureKind::Property,
                    features);
            }
        }
        return std::make_unique<BinaryExpr>(
            op,
            genExpr(operand_type, depth - 1, scope, features, loose),
            genExpr(rhs_type, depth - 1, scope, features, loose));
      }
      case Node::Logical: {
        BinaryOp op;
        if (guide_ == nullptr) {
            op = rng_.coin() ? BinaryOp::And : BinaryOp::Or;
        } else {
            const std::vector<BinaryOp> options{BinaryOp::And,
                                                BinaryOp::Or};
            op = options[pickArm(options, [](BinaryOp candidate) {
                return features::binaryOp(candidate);
            })];
        }
        if (!use(features::binaryOp(op), FeatureKind::Operator,
                 features)) {
            return genLeaf(target, scope, features, loose);
        }
        return std::make_unique<BinaryExpr>(
            op,
            genExpr(DataType::Bool, depth - 1, scope, features, loose),
            genExpr(DataType::Bool, depth - 1, scope, features, loose));
      }
      case Node::NotOp: {
        if (!use(features::unaryOp(UnaryOp::Not), FeatureKind::Operator,
                 features)) {
            return genLeaf(target, scope, features, loose);
        }
        return std::make_unique<UnaryExpr>(
            UnaryOp::Not,
            genExpr(DataType::Bool, depth - 1, scope, features, loose));
      }
      case Node::IsForm: {
        // The postfix IS family closes the unary table.
        std::vector<UnaryOp> allowed;
        for (const EnumInfo<UnaryOp> &row : unaryOpTable().subspan(
                 static_cast<size_t>(UnaryOp::IsNull))) {
            if (allowName(row.feature))
                allowed.push_back(row.value);
        }
        if (allowed.empty())
            return genLeaf(target, scope, features, loose);
        UnaryOp op = allowed[pickArm(allowed, [](UnaryOp candidate) {
            return features::unaryOp(candidate);
        })];
        use(features::unaryOp(op), FeatureKind::Operator, features);
        DataType operand =
            (op == UnaryOp::IsNull || op == UnaryOp::IsNotNull)
                ? randomSupportedType()
                : DataType::Bool;
        return std::make_unique<UnaryExpr>(
            op, genExpr(operand, depth - 1, scope, features, loose));
      }
      case Node::Between: {
        bool negated = rng_.coin();
        const char *feature = negated ? "OP_NOT_BETWEEN" : "OP_BETWEEN";
        if (!use(feature, FeatureKind::Operator, features))
            return genLeaf(target, scope, features, loose);
        DataType operand_type = randomSupportedType();
        return std::make_unique<BetweenExpr>(
            genExpr(operand_type, depth - 1, scope, features, loose),
            genExpr(operand_type, depth - 1, scope, features, loose),
            genExpr(operand_type, depth - 1, scope, features, loose),
            negated);
      }
      case Node::InList: {
        bool negated = rng_.coin();
        const char *feature = negated ? "OP_NOT_IN_LIST" : "OP_IN_LIST";
        if (!use(feature, FeatureKind::Operator, features))
            return genLeaf(target, scope, features, loose);
        DataType operand_type = randomSupportedType();
        std::vector<ExprPtr> items;
        size_t count = 1 + rng_.below(3);
        for (size_t i = 0; i < count; ++i) {
            items.push_back(genExpr(operand_type, depth - 1, scope,
                                    features, loose));
        }
        return std::make_unique<InListExpr>(
            genExpr(operand_type, depth - 1, scope, features, loose),
            std::move(items), negated);
      }
      case Node::LikeOp: {
        static const BinaryOp ops[] = {BinaryOp::Like, BinaryOp::NotLike,
                                       BinaryOp::Glob};
        std::vector<BinaryOp> allowed;
        for (BinaryOp op : ops) {
            if (allowName(features::binaryOp(op)))
                allowed.push_back(op);
        }
        if (allowed.empty())
            return genLeaf(target, scope, features, loose);
        BinaryOp op = allowed[pickArm(allowed, [](BinaryOp candidate) {
            return features::binaryOp(candidate);
        })];
        use(features::binaryOp(op), FeatureKind::Operator, features);
        // Pattern: a text literal with wildcards, occasionally an expr.
        ExprPtr pattern;
        if (rng_.chance(0.8)) {
            std::string text = rng_.text(4);
            const char *wildcards =
                op == BinaryOp::Glob ? "*?" : "%_";
            if (rng_.coin())
                text.push_back(wildcards[0]);
            if (rng_.coin())
                text.insert(text.begin(), wildcards[rng_.below(2)]);
            pattern = std::make_unique<LiteralExpr>(Value::text(text));
            use(features::dataType(DataType::Text),
                FeatureKind::DataType, features);
        } else {
            pattern = genExpr(DataType::Text, depth - 1, scope, features,
                              loose);
        }
        return std::make_unique<BinaryExpr>(
            op,
            genExpr(DataType::Text, depth - 1, scope, features, loose),
            std::move(pattern));
      }
      case Node::Arithmetic: {
        static const BinaryOp ops[] = {BinaryOp::Add, BinaryOp::Sub,
                                       BinaryOp::Mul, BinaryOp::Div,
                                       BinaryOp::Mod};
        std::vector<BinaryOp> allowed;
        for (BinaryOp op : ops) {
            if (allowName(features::binaryOp(op)))
                allowed.push_back(op);
        }
        if (allowed.empty())
            return genLeaf(target, scope, features, loose);
        BinaryOp op = allowed[pickArm(allowed, [](BinaryOp candidate) {
            return features::binaryOp(candidate);
        })];
        use(features::binaryOp(op), FeatureKind::Operator, features);
        return std::make_unique<BinaryExpr>(
            op, genExpr(DataType::Int, depth - 1, scope, features, loose),
            genExpr(DataType::Int, depth - 1, scope, features, loose));
      }
      case Node::Bitwise: {
        static const BinaryOp ops[] = {
            BinaryOp::BitAnd, BinaryOp::BitOr, BinaryOp::BitXor,
            BinaryOp::ShiftLeft, BinaryOp::ShiftRight};
        std::vector<BinaryOp> allowed;
        for (BinaryOp op : ops) {
            if (allowName(features::binaryOp(op)))
                allowed.push_back(op);
        }
        if (allowed.empty())
            return genLeaf(target, scope, features, loose);
        BinaryOp op = allowed[pickArm(allowed, [](BinaryOp candidate) {
            return features::binaryOp(candidate);
        })];
        use(features::binaryOp(op), FeatureKind::Operator, features);
        return std::make_unique<BinaryExpr>(
            op, genExpr(DataType::Int, depth - 1, scope, features, loose),
            genExpr(DataType::Int, depth - 1, scope, features, loose));
      }
      case Node::UnaryNum: {
        static const UnaryOp ops[] = {UnaryOp::Neg, UnaryOp::Plus,
                                      UnaryOp::BitNot};
        std::vector<UnaryOp> allowed;
        for (UnaryOp op : ops) {
            if (allowName(features::unaryOp(op)))
                allowed.push_back(op);
        }
        if (allowed.empty())
            return genLeaf(target, scope, features, loose);
        UnaryOp op = allowed[pickArm(allowed, [](UnaryOp candidate) {
            return features::unaryOp(candidate);
        })];
        use(features::unaryOp(op), FeatureKind::Operator, features);
        return std::make_unique<UnaryExpr>(
            op,
            genExpr(DataType::Int, depth - 1, scope, features, loose));
      }
      case Node::Concat: {
        if (!use(features::binaryOp(BinaryOp::Concat),
                 FeatureKind::Operator, features)) {
            return genLeaf(target, scope, features, loose);
        }
        return std::make_unique<BinaryExpr>(
            BinaryOp::Concat,
            genExpr(DataType::Text, depth - 1, scope, features, loose),
            genExpr(DataType::Text, depth - 1, scope, features, loose));
      }
      case Node::Function:
        return genFunctionCall(target, depth, scope, features, loose);
      case Node::CaseOp: {
        bool simple = rng_.coin();
        const char *feature =
            simple ? "OP_CASE_SIMPLE" : "OP_CASE_SEARCHED";
        if (!use(feature, FeatureKind::Operator, features))
            return genLeaf(target, scope, features, loose);
        ExprPtr operand;
        DataType when_type = DataType::Bool;
        if (simple) {
            when_type = randomSupportedType();
            operand =
                genExpr(when_type, depth - 1, scope, features, loose);
        }
        std::vector<CaseExpr::Arm> arms;
        size_t arm_count = 1 + rng_.below(2);
        for (size_t i = 0; i < arm_count; ++i) {
            arms.push_back(CaseExpr::Arm{
                genExpr(when_type, depth - 1, scope, features, loose),
                genExpr(target, depth - 1, scope, features, loose)});
        }
        ExprPtr else_expr;
        if (rng_.coin()) {
            else_expr =
                genExpr(target, depth - 1, scope, features, loose);
        }
        return std::make_unique<CaseExpr>(std::move(operand),
                                          std::move(arms),
                                          std::move(else_expr));
      }
      case Node::CastOp: {
        use("OP_CAST", FeatureKind::Operator, features);
        use(features::dataType(target), FeatureKind::DataType, features);
        DataType source = randomSupportedType();
        return std::make_unique<CastExpr>(
            genExpr(source, depth - 1, scope, features, loose), target);
      }
      case Node::Subquery:
        return genSubqueryExpr(target, depth, scope, features, loose);
    }
    return genLeaf(target, scope, features, loose);
}

ExprPtr
AdaptiveGenerator::genSimpleBool(const ScopeColumns &scope,
                                 FeatureSet &features)
{
    static const BinaryOp ops[] = {BinaryOp::Eq,      BinaryOp::NotEq,
                                   BinaryOp::Less,    BinaryOp::LessEq,
                                   BinaryOp::Greater, BinaryOp::GreaterEq};
    std::vector<BinaryOp> allowed;
    for (BinaryOp op : ops) {
        if (allowName(features::binaryOp(op)))
            allowed.push_back(op);
    }
    // IS NOT NULL is the fallback shape when no comparison is allowed.
    if (allowed.empty() || rng_.chance(0.25)) {
        DataType type = randomSupportedType();
        ExprPtr operand = genLeaf(type, scope, features, /*loose=*/false);
        UnaryOp op =
            rng_.coin() ? UnaryOp::IsNull : UnaryOp::IsNotNull;
        if (!allowName(features::unaryOp(op)))
            op = UnaryOp::IsNull;
        use(features::unaryOp(op), FeatureKind::Operator, features);
        return std::make_unique<UnaryExpr>(op, std::move(operand));
    }
    BinaryOp op = allowed[pickArm(allowed, [](BinaryOp candidate) {
        return features::binaryOp(candidate);
    })];
    use(features::binaryOp(op), FeatureKind::Operator, features);
    DataType type = randomSupportedType();
    return std::make_unique<BinaryExpr>(
        op, genLeaf(type, scope, features, /*loose=*/false),
        genLeaf(type, scope, features, /*loose=*/false));
}

// ---------------------------------------------------------------------
// Statement generators
// ---------------------------------------------------------------------

GeneratedStatement
AdaptiveGenerator::genCreateTable()
{
    SQLPP_COUNT("generator.setup.create_table");
    GeneratedStatement out;
    out.kind = StmtKind::CreateTable;
    use(features::stmt(StmtKind::CreateTable), FeatureKind::Statement,
        out.features);

    CreateTableStmt stmt;
    stmt.name = model_.freeName("t");
    if (maybe(features::kIfNotExists, FeatureKind::Clause, 0.2,
              out.features)) {
        stmt.ifNotExists = true;
    }
    size_t column_count = 1 + rng_.below(kMaxColumnsPerTable);
    for (size_t i = 0; i < column_count; ++i) {
        ColumnDef col;
        col.name = concat("c", std::to_string(i));
        col.type = randomType(out.features);
        if (i == 0 &&
            maybe(features::kPrimaryKey, FeatureKind::Clause, 0.25,
                  out.features)) {
            col.primaryKey = true;
        } else if (maybe(features::kUniqueColumn, FeatureKind::Clause,
                         0.12, out.features)) {
            col.unique = true;
        }
        if (!col.primaryKey &&
            maybe(features::kNotNull, FeatureKind::Clause, 0.12,
                  out.features)) {
            col.notNull = true;
        }
        stmt.columns.push_back(col);
    }
    out.text = printStmt(stmt);

    ModelTable model_table;
    model_table.name = stmt.name;
    for (const ColumnDef &col : stmt.columns) {
        model_table.columns.push_back({col.name, col.type, col.notNull,
                                       col.unique, col.primaryKey});
    }
    out.pendingTable = std::move(model_table);
    return out;
}

GeneratedStatement
AdaptiveGenerator::genCreateIndex()
{
    SQLPP_COUNT("generator.setup.create_index");
    GeneratedStatement out;
    out.kind = StmtKind::CreateIndex;
    use(features::stmt(StmtKind::CreateIndex), FeatureKind::Statement,
        out.features);

    CreateIndexStmt stmt;
    auto table_name = model_.randomBaseTable(rng_);
    const ModelTable *table =
        table_name ? model_.table(*table_name) : nullptr;
    if (table == nullptr) {
        // No table yet: still emit something (it will fail and teach
        // nothing wrong — failure lands on STMT_CREATE_INDEX which also
        // succeeds elsewhere).
        stmt.table = "t0";
        stmt.columns.push_back("c0");
    } else {
        stmt.table = table->name;
        size_t count = 1 + rng_.below(std::min<size_t>(
                               2, table->columns.size()));
        // Distinct random columns.
        std::vector<size_t> ordinals(table->columns.size());
        for (size_t i = 0; i < ordinals.size(); ++i)
            ordinals[i] = i;
        for (size_t i = 0; i < count; ++i) {
            size_t j = i + rng_.below(ordinals.size() - i);
            std::swap(ordinals[i], ordinals[j]);
            stmt.columns.push_back(table->columns[ordinals[i]].name);
        }
    }
    stmt.name = model_.freeName("i");
    if (maybe(features::kUniqueIndex, FeatureKind::Clause, 0.3,
              out.features)) {
        stmt.unique = true;
    }
    if (table != nullptr &&
        maybe(features::kPartialIndex, FeatureKind::Clause, 0.25,
              out.features)) {
        ScopeColumns scope;
        for (const ModelColumn &col : table->columns)
            scope.push_back({"", col.name, col.type});
        stmt.where = genSimpleBool(scope, out.features);
    }
    out.text = printStmt(stmt);
    out.pendingIndex = ModelIndex{stmt.name, stmt.table};
    return out;
}

GeneratedStatement
AdaptiveGenerator::genCreateView()
{
    SQLPP_COUNT("generator.setup.create_view");
    GeneratedStatement out;
    out.kind = StmtKind::CreateView;
    use(features::stmt(StmtKind::CreateView), FeatureKind::Statement,
        out.features);

    CreateViewStmt stmt;
    stmt.name = model_.freeName("v");

    auto table_name = model_.randomBaseTable(rng_);
    auto select = std::make_unique<SelectStmt>();
    ModelTable model_table;
    model_table.name = stmt.name;
    model_table.isView = true;

    if (table_name.has_value()) {
        const ModelTable *table = model_.table(*table_name);
        TableRef ref;
        ref.name = *table_name;
        select->from.push_back(std::move(ref));
        ScopeColumns scope;
        for (const ModelColumn &col : table->columns)
            scope.push_back({*table_name, col.name, col.type});
        size_t item_count = 1 + rng_.below(2);
        for (size_t i = 0; i < item_count; ++i) {
            SelectItem item;
            DataType type = randomSupportedType();
            item.expr = genExpr(type, 1, scope, out.features,
                                /*loose=*/false);
            select->items.push_back(std::move(item));
            model_table.columns.push_back(
                {"vc" + std::to_string(i), type, false, false, false});
        }
        if (rng_.chance(0.4))
            select->where = genSimpleBool(scope, out.features);
    } else {
        SelectItem item;
        item.expr = genLiteral(DataType::Int, out.features);
        select->items.push_back(std::move(item));
        model_table.columns.push_back(
            {"vc0", DataType::Int, false, false, false});
    }
    if (maybe(features::kViewColumnList, FeatureKind::Clause, 0.7,
              out.features)) {
        for (size_t i = 0; i < model_table.columns.size(); ++i)
            stmt.columnNames.push_back("vc" + std::to_string(i));
    } else {
        // Without an explicit list the view exposes expression texts as
        // names; the model cannot predict them reliably, so name them
        // per position anyway and accept the small mismatch risk by
        // aliasing each item.
        for (size_t i = 0; i < select->items.size(); ++i)
            select->items[i].alias = "vc" + std::to_string(i);
    }
    stmt.select = std::move(select);
    out.text = printStmt(stmt);
    out.pendingTable = std::move(model_table);
    return out;
}

GeneratedStatement
AdaptiveGenerator::genInsert()
{
    SQLPP_COUNT("generator.setup.insert");
    GeneratedStatement out;
    out.kind = StmtKind::Insert;
    use(features::stmt(StmtKind::Insert), FeatureKind::Statement,
        out.features);

    InsertStmt stmt;
    // Prefer tables still below the row cap, bounding join fan-out.
    std::vector<const ModelTable *> open_tables;
    for (const ModelTable &candidate : model_.tables()) {
        if (!candidate.isView &&
            candidate.assumedRows < kMaxRowsPerTable) {
            open_tables.push_back(&candidate);
        }
    }
    const ModelTable *table =
        open_tables.empty() ? nullptr
                            : open_tables[rng_.below(open_tables.size())];
    if (table == nullptr) {
        auto any = model_.randomBaseTable(rng_);
        table = any ? model_.table(*any) : nullptr;
    }
    stmt.table = table != nullptr ? table->name : "t0";
    if (maybe(features::kOrIgnore, FeatureKind::Clause, 0.25,
              out.features)) {
        stmt.orIgnore = true;
    }
    size_t row_count = 1;
    if (maybe(features::kMultiRowInsert, FeatureKind::Clause, 0.35,
              out.features)) {
        row_count = 2 + rng_.below(kMaxRowsPerInsert - 1);
    }
    size_t width = table != nullptr ? table->columns.size() : 1;
    for (size_t r = 0; r < row_count; ++r) {
        std::vector<ExprPtr> row;
        for (size_t c = 0; c < width; ++c) {
            DataType type = table != nullptr ? table->columns[c].type
                                             : DataType::Int;
            bool constrained =
                table != nullptr && (table->columns[c].primaryKey ||
                                     table->columns[c].unique ||
                                     table->columns[c].notNull);
            if (constrained) {
                // Wide-spread non-NULL values keep the collision rate
                // against PRIMARY KEY / UNIQUE constraints low.
                use(features::dataType(type), FeatureKind::DataType,
                    out.features);
                switch (type) {
                  case DataType::Int:
                    row.push_back(std::make_unique<LiteralExpr>(
                        Value::integer(rng_.range(-1000000000,
                                                  1000000000))));
                    break;
                  case DataType::Text:
                    row.push_back(std::make_unique<LiteralExpr>(
                        Value::text(rng_.identifier(10))));
                    break;
                  case DataType::Bool:
                    // Only two distinct values exist; collisions are
                    // unavoidable and realistic.
                    row.push_back(std::make_unique<LiteralExpr>(
                        Value::boolean(rng_.coin())));
                    break;
                }
                continue;
            }
            row.push_back(genLiteral(type, out.features));
        }
        stmt.rows.push_back(std::move(row));
    }
    out.text = printStmt(stmt);
    out.pendingInsertTable = stmt.table;
    out.pendingInsertRows = row_count;
    return out;
}

GeneratedStatement
AdaptiveGenerator::genAnalyze()
{
    SQLPP_COUNT("generator.setup.analyze");
    GeneratedStatement out;
    out.kind = StmtKind::Analyze;
    use(features::stmt(StmtKind::Analyze), FeatureKind::Statement,
        out.features);
    AnalyzeStmt stmt;
    auto table_name = model_.randomBaseTable(rng_);
    if (table_name.has_value() && rng_.coin())
        stmt.table = *table_name;
    out.text = printStmt(stmt);
    return out;
}

GeneratedStatement
AdaptiveGenerator::generateSetupStatement()
{
    ++generated_;
    // Choose by what the schema model lacks; statement features that
    // have been learned unsupported drop out of the lottery.
    bool need_table = model_.tableCount(false) < kMaxTables;
    bool can_index =
        model_.tableCount(false) > 0 &&
        allowName(features::stmt(StmtKind::CreateIndex));
    bool can_view = model_.tableCount(false) > 0 &&
                    model_.tableCount(true) < kMaxViews &&
                    allowName(features::stmt(StmtKind::CreateView));
    bool can_analyze =
        model_.tableCount(false) > 0 &&
        allowName(features::stmt(StmtKind::Analyze));

    bool has_open_table = false;
    for (const ModelTable &table : model_.tables()) {
        if (!table.isView &&
            table.assumedRows < kMaxRowsPerTable) {
            has_open_table = true;
        }
    }

    if (need_table && (model_.tableCount(false) == 0 || rng_.chance(0.5)))
        return genCreateTable();
    if (can_index && rng_.chance(0.18))
        return genCreateIndex();
    if (can_view && rng_.chance(0.15))
        return genCreateView();
    if (can_analyze && rng_.chance(0.06))
        return genAnalyze();
    if (model_.tableCount(false) == 0)
        return genCreateTable();
    if (!has_open_table) {
        // All tables are at the row cap: stop growing the database and
        // spend the statement on metadata work instead.
        if (can_index && rng_.coin())
            return genCreateIndex();
        if (can_analyze)
            return genAnalyze();
        if (can_view)
            return genCreateView();
    }
    return genInsert();
}

SelectPtr
AdaptiveGenerator::genFromClause(FeatureSet &features,
                                 ScopeColumns &scope,
                                 bool allow_subquery_from)
{
    auto select = std::make_unique<SelectStmt>();

    auto bind_table = [&](const std::string &name,
                          const std::string &alias) {
        const ModelTable *table = model_.table(name);
        std::string binding = alias.empty() ? name : alias;
        if (table != nullptr) {
            for (const ModelColumn &col : table->columns)
                scope.push_back({binding, col.name, col.type});
        }
    };

    auto first = model_.randomTable(rng_, /*include_views=*/true);
    if (!first.has_value())
        return select; // FROM-less shell

    std::set<std::string> used{*first};
    TableRef ref;
    ref.name = *first;
    select->from.push_back(std::move(ref));
    bind_table(*first, "");

    // Optional derived table as an extra comma source is avoided (the
    // engine rejects comma+JOIN mixes); instead we sometimes make the
    // single source a derived table.
    bool derive;
    if (guide_ == nullptr) {
        derive = allow_subquery_from && config_.enableSubqueries &&
                 select->from.size() == 1 && rng_.chance(0.18) &&
                 allowName(features::kSubqueryFrom);
    } else {
        // Guided: the fixed 18% coin becomes a two-arm decision, so the
        // bandit can learn that derived-table FROMs open new plan
        // shapes (or that the dialect rejects them).
        bool eligible = allow_subquery_from &&
                        config_.enableSubqueries &&
                        select->from.size() == 1 &&
                        allowName(features::kSubqueryFrom);
        derive = eligible &&
                 chooseGuided({"RULE_FROM_TABLE", "RULE_FROM_DERIVED"}) ==
                     1;
    }
    if (derive) {
        use(features::kSubqueryFrom, FeatureKind::Clause, features);
        // Wrap the first table in (SELECT * FROM t) AS dN.
        std::string alias = "d" + std::to_string(alias_counter_++);
        auto inner = std::make_unique<SelectStmt>();
        SelectItem star;
        star.star = true;
        inner->items.push_back(std::move(star));
        TableRef inner_ref;
        inner_ref.name = *first;
        inner->from.push_back(std::move(inner_ref));
        TableRef derived;
        derived.subquery = std::move(inner);
        derived.alias = alias;
        select->from.clear();
        scope.clear();
        select->from.push_back(std::move(derived));
        bind_table(*first, alias);
        // Rebind scope to the derived alias.
        for (ScopeColumn &col : scope)
            col.binding = alias;
    }

    size_t join_count;
    if (guide_ == nullptr) {
        join_count = rng_.below(kMaxJoins + 1);
    } else {
        // Join fan-out dominates plan-shape diversity; give every
        // cardinality its own arm so the bandit can seek the widths
        // that still yield unseen plans.
        std::vector<size_t> counts;
        for (size_t n = 0; n <= kMaxJoins; ++n)
            counts.push_back(n);
        join_count = counts[pickArm(counts, [](size_t n) {
            return "RULE_JOIN_COUNT_" + std::to_string(n);
        })];
    }
    for (size_t j = 0; j < join_count; ++j) {
        auto next = model_.randomTable(rng_, /*include_views=*/true);
        if (!next.has_value())
            break;
        std::vector<JoinType> allowed;
        for (const EnumInfo<JoinType> &row : joinTypeTable()) {
            if (allowName(row.feature))
                allowed.push_back(row.value);
        }
        if (allowed.empty())
            break;
        JoinType type = allowed[pickArm(allowed, [](JoinType candidate) {
            return features::join(candidate);
        })];
        use(features::join(type), FeatureKind::Clause, features);

        JoinClause join;
        join.type = type;
        join.table.name = *next;
        std::string binding = *next;
        if (used.count(*next) > 0) {
            binding = "j" + std::to_string(alias_counter_++);
            join.table.alias = binding;
        }
        used.insert(binding);
        ScopeColumns right_scope;
        const ModelTable *right = model_.table(*next);
        if (right != nullptr) {
            for (const ModelColumn &col : right->columns)
                right_scope.push_back({binding, col.name, col.type});
        }
        if (type != JoinType::Cross && type != JoinType::Natural) {
            // ON: equality between one left and one right column when
            // possible, else a generated boolean over both sides.
            ScopeColumns joint = scope;
            joint.insert(joint.end(), right_scope.begin(),
                         right_scope.end());
            // Prefer equality over a type-matched column pair so the
            // ON clause type-checks on strict dialects.
            std::vector<std::pair<const ScopeColumn *,
                                  const ScopeColumn *>> pairs;
            for (const ScopeColumn &l : scope) {
                for (const ScopeColumn &r : right_scope) {
                    if (l.type == r.type)
                        pairs.emplace_back(&l, &r);
                }
            }
            if (!pairs.empty() && rng_.chance(0.75)) {
                auto [l, r] = pairs[rng_.below(pairs.size())];
                use(features::binaryOp(BinaryOp::Eq),
                    FeatureKind::Operator, features);
                join.on = std::make_unique<BinaryExpr>(
                    BinaryOp::Eq,
                    std::make_unique<ColumnRefExpr>(l->binding, l->name),
                    std::make_unique<ColumnRefExpr>(r->binding,
                                                    r->name));
            } else {
                join.on = genSimpleBool(joint, features);
            }
        }
        scope.insert(scope.end(), right_scope.begin(),
                     right_scope.end());
        select->joins.push_back(std::move(join));
    }
    return select;
}

GeneratedStatement
AdaptiveGenerator::generateSelect()
{
    ++generated_;
    SQLPP_COUNT("generator.select");
    GeneratedStatement out;
    out.kind = StmtKind::Select;
    out.isQuery = true;
    use(features::stmt(StmtKind::Select), FeatureKind::Statement,
        out.features);

    ScopeColumns scope;
    SelectPtr select = genFromClause(out.features, scope,
                                     /*allow_subquery_from=*/true);
    // Per-statement depth is drawn up to the schedule's current cap, so
    // shallow expressions (index-probe-shaped predicates, single
    // comparisons) keep appearing even late in a run.
    int depth = static_cast<int>(rng_.range(1, currentDepth()));
    bool loose = allowName(features::kUntypedExpr) &&
                 rng_.chance(kLooseTypeProbability);

    bool aggregate = rng_.chance(0.2) && !scope.empty();
    if (aggregate &&
        maybe(features::kGroupBy, FeatureKind::Clause, 0.7,
              out.features)) {
        const ScopeColumn &key = scope[rng_.below(scope.size())];
        select->groupBy.push_back(
            std::make_unique<ColumnRefExpr>(key.binding, key.name));
        SelectItem key_item;
        key_item.expr =
            std::make_unique<ColumnRefExpr>(key.binding, key.name);
        select->items.push_back(std::move(key_item));
        SelectItem agg_item;
        const char *agg = rng_.coin() ? "COUNT" : "SUM";
        use(features::function(agg), FeatureKind::Function,
            out.features);
        if (std::string(agg) == "COUNT" && rng_.coin()) {
            agg_item.expr = std::make_unique<FunctionExpr>(
                "COUNT", std::vector<ExprPtr>{}, /*star=*/true);
        } else {
            std::vector<ExprPtr> args;
            args.push_back(
                genExpr(DataType::Int, 1, scope, out.features, loose));
            agg_item.expr =
                std::make_unique<FunctionExpr>(agg, std::move(args));
        }
        select->items.push_back(std::move(agg_item));
        if (maybe(features::kHaving, FeatureKind::Clause, 0.3,
                  out.features)) {
            std::vector<ExprPtr> args;
            args.push_back(std::make_unique<ColumnRefExpr>(key.binding,
                                                           key.name));
            ExprPtr count = std::make_unique<FunctionExpr>(
                "COUNT", std::vector<ExprPtr>{}, /*star=*/true);
            use(features::binaryOp(BinaryOp::Greater),
                FeatureKind::Operator, out.features);
            select->having = std::make_unique<BinaryExpr>(
                BinaryOp::Greater, std::move(count),
                std::make_unique<LiteralExpr>(
                    Value::integer(rng_.range(0, 2))));
        }
    } else if (!scope.empty() && rng_.chance(0.25)) {
        SelectItem star;
        star.star = true;
        select->items.push_back(std::move(star));
    } else {
        size_t item_count = 1 + rng_.below(2);
        for (size_t i = 0; i < item_count; ++i) {
            SelectItem item;
            item.expr = genExpr(randomSupportedType(), depth, scope,
                                out.features, loose);
            select->items.push_back(std::move(item));
        }
    }

    if (maybe(features::kDistinct, FeatureKind::Clause, 0.15,
              out.features)) {
        select->distinct = true;
    }
    if (rng_.chance(0.75)) {
        use(features::kWhere, FeatureKind::Clause, out.features);
        select->where =
            genExpr(DataType::Bool, depth, scope, out.features, loose);
    }
    if (!scope.empty() &&
        maybe(features::kOrderBy, FeatureKind::Clause, 0.2,
              out.features)) {
        OrderTerm term;
        const ScopeColumn &col = scope[rng_.below(scope.size())];
        term.expr =
            std::make_unique<ColumnRefExpr>(col.binding, col.name);
        term.ascending = rng_.coin();
        select->orderBy.push_back(std::move(term));
    }
    if (maybe(features::kLimit, FeatureKind::Clause, 0.15,
              out.features)) {
        select->limit = rng_.range(0, 10);
        if (maybe(features::kOffset, FeatureKind::Clause, 0.4,
                  out.features)) {
            select->offset = rng_.range(0, 5);
        }
    }
    out.text = printStmt(*select);
    return out;
}

std::optional<QueryShape>
AdaptiveGenerator::generateQueryShape()
{
    if (model_.tableCount(false) == 0 && model_.tableCount(true) == 0) {
        SQLPP_COUNT("generator.shape.rejected.no_tables");
        return std::nullopt;
    }
    ++generated_;
    QueryShape shape;
    use(features::stmt(StmtKind::Select), FeatureKind::Statement,
        shape.features);

    // Record every bandit pull into the shape so the campaign can
    // credit exactly the arms behind this statement.
    arm_sink_ = &shape.arms;

    ScopeColumns scope;
    shape.base = genFromClause(shape.features, scope,
                               /*allow_subquery_from=*/true);
    if (shape.base->from.empty()) {
        SQLPP_COUNT("generator.shape.rejected.empty_from");
        arm_sink_ = nullptr;
        return std::nullopt;
    }

    // Oracle constraint (as in SQLancer): no aggregates / LIMIT in the
    // base, and the select list must make row multiplicity observable.
    SelectItem star;
    star.star = true;
    shape.base->items.push_back(std::move(star));
    // DISTINCT bases are compared with set semantics by TLP.
    if (maybe(features::kDistinct, FeatureKind::Clause, 0.15,
              shape.features)) {
        shape.base->distinct = true;
    }

    int depth = static_cast<int>(rng_.range(1, currentDepth()));
    bool loose = allowName(features::kUntypedExpr) &&
                 rng_.chance(kLooseTypeProbability);
    use(features::kWhere, FeatureKind::Clause, shape.features);
    shape.predicate =
        genExpr(DataType::Bool, depth, scope, shape.features, loose);
    arm_sink_ = nullptr;
    SQLPP_COUNT("generator.shape.ok");
    return shape;
}

void
AdaptiveGenerator::noteExecution(const GeneratedStatement &stmt,
                                 bool success)
{
    if (!success)
        return;
    if (stmt.pendingTable.has_value())
        model_.addTable(*stmt.pendingTable);
    if (stmt.pendingIndex.has_value())
        model_.addIndex(*stmt.pendingIndex);
    if (!stmt.pendingInsertTable.empty())
        model_.noteInsert(stmt.pendingInsertTable, stmt.pendingInsertRows);
}

} // namespace sqlpp
