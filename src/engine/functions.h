/**
 * @file
 * Scalar function registry: 58 built-in functions (Table 1 of the paper).
 *
 * Numeric-only engine note: the platform's data types are INTEGER, TEXT,
 * and BOOLEAN, so transcendental functions use fixed-point semantics —
 * SIN(x) is round(sin(x) * 1000) as an integer. The semantics are
 * arbitrary but total and deterministic, which is all the test oracles
 * require; what matters for faithfulness is the *error behaviour*
 * (domain errors for ASIN(2), overflow for EXP(100)), which mirrors the
 * paper's observation that "ASIN(1) can succeed while ASIN(2) throws".
 */
#ifndef SQLPP_ENGINE_FUNCTIONS_H
#define SQLPP_ENGINE_FUNCTIONS_H

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/eval.h"
#include "sqlir/value.h"
#include "util/status.h"

namespace sqlpp {

/** Argument/return type spec for signatures (Any = polymorphic). */
enum class TypeSpec
{
    Int,
    Text,
    Bool,
    Any,
};

/** Static signature of a scalar function, used by the type checker. */
struct FunctionSig
{
    std::string name;
    /** Fixed leading argument types. */
    std::vector<TypeSpec> args;
    /** If true, the last entry of args may repeat (>=1 more times). */
    bool variadic = false;
    /** Return type. */
    TypeSpec ret = TypeSpec::Any;
    /** Return type is the type of the first argument. */
    bool retSameAsArg0 = false;
    /**
     * Minimum accepted argument count; -1 derives it from args (all of
     * args for fixed-arity, args.size()-1 for variadic). Used for
     * trailing optional arguments (SUBSTR, LPAD).
     */
    int minArgs = -1;

    size_t
    minimumArgs() const
    {
        if (minArgs >= 0)
            return static_cast<size_t>(minArgs);
        if (variadic && !args.empty())
            return args.size() - 1;
        return args.size();
    }

    size_t
    maximumArgs() const
    {
        return variadic ? static_cast<size_t>(-1) : args.size();
    }
};

/** A scalar function implementation. */
struct FunctionImpl
{
    FunctionSig sig;
    /** Evaluated arguments in, value out. May fail (domain, overflow). */
    std::function<StatusOr<Value>(std::span<const Value>,
                                  const EvalContext &)> eval;
    /** Pre-resolved coverage-probe slot ("eval.fn.<name>"). */
    size_t probeSlot = 0;
};

/** Registry of all built-in scalar functions (process-wide, immutable). */
class FunctionRegistry
{
  public:
    static const FunctionRegistry &instance();

    /** Lookup by uppercase name; nullptr when unknown. */
    const FunctionImpl *find(const std::string &upper_name) const;

    /** All registered function names, sorted. */
    std::vector<std::string> names() const;

    size_t size() const { return impls_.size(); }

  private:
    FunctionRegistry();

    std::vector<FunctionImpl> impls_;
    /** Name -> index into impls_. */
    std::unordered_map<std::string, size_t> by_name_;

    void add(FunctionImpl impl);
};

/** Scale factor of the fixed-point transcendental functions. */
constexpr int64_t kFixedPointScale = 1000;

} // namespace sqlpp

#endif // SQLPP_ENGINE_FUNCTIONS_H
