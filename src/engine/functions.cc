#include "engine/functions.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/coverage.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/** Domain error: NULL or runtime error depending on engine behaviour. */
StatusOr<Value>
domainError(const EvalContext &ctx, const char *what)
{
    if (ctx.behavior != nullptr && ctx.behavior->domainErrorIsNull)
        return Value::null();
    return Status::runtimeError(std::string("domain error in ") + what);
}

/** Shared shape of unary fixed-point transcendental functions. */
StatusOr<Value>
fixedPointUnary(std::span<const Value> args, const EvalContext &ctx,
                const char *name, double (*fn)(double),
                bool (*domain_ok)(double))
{
    auto x = valueToNumeric(args[0]);
    if (!x)
        return Value::null();
    double input = static_cast<double>(*x);
    if (!domain_ok(input))
        return domainError(ctx, name);
    double result = fn(input) * static_cast<double>(kFixedPointScale);
    if (!std::isfinite(result) || result > 9.2e18 || result < -9.2e18)
        return Status::runtimeError(std::string("overflow in ") + name);
    return Value::integer(static_cast<int64_t>(std::llround(result)));
}

StatusOr<Value>
textUnary(std::span<const Value> args,
          std::string (*fn)(const std::string &))
{
    auto text = valueToText(args[0]);
    if (!text)
        return Value::null();
    return Value::text(fn(*text));
}

constexpr int64_t kMaxGeneratedStringLength = 1 << 16;

} // namespace

const FunctionRegistry &
FunctionRegistry::instance()
{
    static FunctionRegistry registry;
    return registry;
}

const FunctionImpl *
FunctionRegistry::find(const std::string &upper_name) const
{
    auto it = by_name_.find(upper_name);
    return it == by_name_.end() ? nullptr : &impls_[it->second];
}

std::vector<std::string>
FunctionRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(impls_.size());
    for (const FunctionImpl &impl : impls_)
        out.push_back(impl.sig.name);
    std::sort(out.begin(), out.end());
    return out;
}

void
FunctionRegistry::add(FunctionImpl impl)
{
    impl.probeSlot = CoverageRegistry::instance().slot(
        "eval.fn." + toLower(impl.sig.name));
    by_name_.emplace(impl.sig.name, impls_.size());
    impls_.push_back(std::move(impl));
}

FunctionRegistry::FunctionRegistry()
{
    using Args = std::span<const Value>;
    using Ctx = const EvalContext &;

    auto sig = [](const char *name, std::vector<TypeSpec> args,
                  TypeSpec ret, bool variadic = false,
                  bool ret_same = false) {
        FunctionSig s;
        s.name = name;
        s.args = std::move(args);
        s.ret = ret;
        s.variadic = variadic;
        s.retSameAsArg0 = ret_same;
        return s;
    };

    // ------------------------------------------------------------------
    // Math functions (22).
    // ------------------------------------------------------------------
    add({sig("ABS", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto x = valueToNumeric(args[0]);
             if (!x)
                 return Value::null();
             if (*x == INT64_MIN)
                 return Status::runtimeError("integer overflow in ABS");
             return Value::integer(*x < 0 ? -*x : *x);
         }});
    add({sig("SIGN", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto x = valueToNumeric(args[0]);
             if (!x)
                 return Value::null();
             return Value::integer(*x > 0 ? 1 : (*x < 0 ? -1 : 0));
         }});
    add({sig("MOD", {TypeSpec::Int, TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) -> StatusOr<Value> {
             auto a = valueToNumeric(args[0]);
             auto b = valueToNumeric(args[1]);
             if (!a || !b)
                 return Value::null();
             if (*b == 0) {
                 if (ctx.behavior == nullptr ||
                     ctx.behavior->divZeroIsNull) {
                     return Value::null();
                 }
                 return Status::runtimeError("division by zero in MOD");
             }
             if (*a == INT64_MIN && *b == -1)
                 return Value::integer(0);
             return Value::integer(*a % *b);
         }});
    add({sig("POWER", {TypeSpec::Int, TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto base = valueToNumeric(args[0]);
             auto exp = valueToNumeric(args[1]);
             if (!base || !exp)
                 return Value::null();
             if (*exp < 0) {
                 // Integer POWER with negative exponent truncates to 0
                 // except for |base| == 1.
                 if (*base == 1)
                     return Value::integer(1);
                 if (*base == -1)
                     return Value::integer((*exp % 2) == 0 ? 1 : -1);
                 if (*base == 0)
                     return Status::runtimeError("0 to a negative power");
                 return Value::integer(0);
             }
             int64_t result = 1;
             int64_t b = *base;
             int64_t e = *exp;
             while (e > 0) {
                 if ((e & 1) != 0) {
                     if (__builtin_mul_overflow(result, b, &result))
                         return Status::runtimeError(
                             "integer overflow in POWER");
                 }
                 e >>= 1;
                 if (e > 0 && __builtin_mul_overflow(b, b, &b))
                     return Status::runtimeError(
                         "integer overflow in POWER");
             }
             return Value::integer(result);
         }});
    add({sig("SQRT", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) -> StatusOr<Value> {
             auto x = valueToNumeric(args[0]);
             if (!x)
                 return Value::null();
             if (*x < 0)
                 return domainError(ctx, "SQRT");
             int64_t root = static_cast<int64_t>(
                 std::sqrt(static_cast<double>(*x)));
             // Correct the floating-point estimate without squaring past
             // INT64_MAX: r * r <= x is tested as r <= x / r.
             while (root > 0 && root > *x / root)
                 --root;
             while (root + 1 <= *x / (root + 1))
                 ++root;
             return Value::integer(root);
         }});
    auto identity_int = [](Args args, Ctx) -> StatusOr<Value> {
        auto x = valueToNumeric(args[0]);
        if (!x)
            return Value::null();
        return Value::integer(*x);
    };
    add({sig("FLOOR", {TypeSpec::Int}, TypeSpec::Int), identity_int});
    add({sig("CEIL", {TypeSpec::Int}, TypeSpec::Int), identity_int});
    add({sig("ROUND", {TypeSpec::Int}, TypeSpec::Int), identity_int});
    add({sig("SIN", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "SIN", std::sin,
                                    [](double) { return true; });
         }});
    add({sig("COS", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "COS", std::cos,
                                    [](double) { return true; });
         }});
    add({sig("TAN", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "TAN", std::tan,
                                    [](double) { return true; });
         }});
    add({sig("ASIN", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(
                 args, ctx, "ASIN", std::asin,
                 [](double x) { return x >= -1.0 && x <= 1.0; });
         }});
    add({sig("ACOS", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(
                 args, ctx, "ACOS", std::acos,
                 [](double x) { return x >= -1.0 && x <= 1.0; });
         }});
    add({sig("ATAN", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "ATAN", std::atan,
                                    [](double) { return true; });
         }});
    add({sig("ATAN2", {TypeSpec::Int, TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto y = valueToNumeric(args[0]);
             auto x = valueToNumeric(args[1]);
             if (!y || !x)
                 return Value::null();
             double result = std::atan2(static_cast<double>(*y),
                                        static_cast<double>(*x)) *
                             static_cast<double>(kFixedPointScale);
             return Value::integer(
                 static_cast<int64_t>(std::llround(result)));
         }});
    add({sig("EXP", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(
                 args, ctx, "EXP", std::exp,
                 [](double x) { return x <= 40.0; });
         }});
    add({sig("LN", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "LN", std::log,
                                    [](double x) { return x > 0.0; });
         }});
    add({sig("LOG10", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "LOG10", std::log10,
                                    [](double x) { return x > 0.0; });
         }});
    add({sig("LOG2", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx ctx) {
             return fixedPointUnary(args, ctx, "LOG2", std::log2,
                                    [](double x) { return x > 0.0; });
         }});
    add({sig("PI", {}, TypeSpec::Int),
         [](Args, Ctx) -> StatusOr<Value> {
             return Value::integer(static_cast<int64_t>(
                 std::llround(M_PI * kFixedPointScale)));
         }});
    add({sig("DEGREES", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto x = valueToNumeric(args[0]);
             if (!x)
                 return Value::null();
             double result = static_cast<double>(*x) * 180.0 / M_PI;
             if (result > 9.2e18 || result < -9.2e18)
                 return Status::runtimeError("overflow in DEGREES");
             return Value::integer(
                 static_cast<int64_t>(std::llround(result)));
         }});
    add({sig("RADIANS", {TypeSpec::Int}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto x = valueToNumeric(args[0]);
             if (!x)
                 return Value::null();
             double result = static_cast<double>(*x) * M_PI / 180.0 *
                             static_cast<double>(kFixedPointScale);
             if (result > 9.2e18 || result < -9.2e18)
                 return Status::runtimeError("overflow in RADIANS");
             return Value::integer(
                 static_cast<int64_t>(std::llround(result)));
         }});

    // ------------------------------------------------------------------
    // String functions (23).
    // ------------------------------------------------------------------
    add({sig("LENGTH", {TypeSpec::Text}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             if (!text)
                 return Value::null();
             return Value::integer(static_cast<int64_t>(text->size()));
         }});
    add({sig("LOWER", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) {
             return textUnary(args, [](const std::string &s) {
                 return toLower(s);
             });
         }});
    add({sig("UPPER", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) {
             return textUnary(args, [](const std::string &s) {
                 return toUpper(s);
             });
         }});
    add({sig("TRIM", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) {
             return textUnary(args, [](const std::string &s) {
                 return std::string(trim(s));
             });
         }});
    add({sig("LTRIM", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) {
             return textUnary(args, [](const std::string &s) {
                 size_t begin = s.find_first_not_of(" \t\r\n");
                 return begin == std::string::npos ? std::string()
                                                   : s.substr(begin);
             });
         }});
    add({sig("RTRIM", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) {
             return textUnary(args, [](const std::string &s) {
                 size_t end = s.find_last_not_of(" \t\r\n");
                 return end == std::string::npos
                            ? std::string()
                            : s.substr(0, end + 1);
             });
         }});
    add({sig("REPLACE", {TypeSpec::Text, TypeSpec::Text, TypeSpec::Text},
             TypeSpec::Text),
         [](Args args, Ctx ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto from = valueToText(args[1]);
             auto to = valueToText(args[2]);
             if (!text || !from || !to)
                 return Value::null();
             // The Listing 3 fault: the result keeps the subject's
             // numeric type instead of being coerced to TEXT, which
             // later derails mixed-type comparisons.
             if (ctx.faultEnabled(FaultId::ReplaceNumericSubject) &&
                 (args[0].kind() == Value::Kind::Int ||
                  args[0].kind() == Value::Kind::Bool)) {
                 std::string replaced = *text;
                 if (!from->empty()) {
                     // Apply the replacement textually, then re-read.
                     std::string out;
                     size_t pos = 0;
                     for (;;) {
                         size_t hit = replaced.find(*from, pos);
                         if (hit == std::string::npos) {
                             out += replaced.substr(pos);
                             break;
                         }
                         out += replaced.substr(pos, hit - pos);
                         out += *to;
                         pos = hit + from->size();
                     }
                     replaced = out;
                 }
                 return Value::integer(
                     valueToNumeric(Value::text(replaced)).value_or(0));
             }
             // Empty needle: SQLite returns the subject unchanged. The
             // result is always TEXT, even for numeric subjects — the
             // property whose violation hid in SQLite for ten years
             // (paper Listing 3).
             if (from->empty())
                 return Value::text(*text);
             std::string out;
             size_t pos = 0;
             for (;;) {
                 size_t hit = text->find(*from, pos);
                 if (hit == std::string::npos) {
                     out += text->substr(pos);
                     break;
                 }
                 out += text->substr(pos, hit - pos);
                 out += *to;
                 pos = hit + from->size();
             }
             return Value::text(out);
         }});
    FunctionSig substr_sig =
        sig("SUBSTR", {TypeSpec::Text, TypeSpec::Int, TypeSpec::Int},
            TypeSpec::Text);
    substr_sig.minArgs = 2; // length argument is optional
    add({substr_sig,
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto start = valueToNumeric(args[1]);
             std::optional<int64_t> length;
             if (args.size() >= 3) {
                 length = valueToNumeric(args[2]);
                 if (!length && !args[2].isNull())
                     length = 0;
                 if (args[2].isNull())
                     return Value::null();
             }
             if (!text || !start)
                 return Value::null();
             int64_t n = static_cast<int64_t>(text->size());
             // 1-based; negative start counts from the end (SQLite).
             int64_t begin = *start;
             if (begin < 0)
                 begin = std::max<int64_t>(n + begin, 0);
             else if (begin > 0)
                 begin = begin - 1;
             if (begin >= n)
                 return Value::text("");
             int64_t count = length.has_value()
                                 ? std::max<int64_t>(*length, 0)
                                 : n - begin;
             count = std::min(count, n - begin);
             return Value::text(text->substr(static_cast<size_t>(begin),
                                             static_cast<size_t>(count)));
         }});
    add({sig("INSTR", {TypeSpec::Text, TypeSpec::Text}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto needle = valueToText(args[1]);
             if (!text || !needle)
                 return Value::null();
             size_t pos = text->find(*needle);
             return Value::integer(
                 pos == std::string::npos
                     ? 0
                     : static_cast<int64_t>(pos) + 1);
         }});
    add({sig("CONCAT", {TypeSpec::Text, TypeSpec::Text}, TypeSpec::Text,
             /*variadic=*/true),
         [](Args args, Ctx) -> StatusOr<Value> {
             std::string out;
             for (const Value &arg : args) {
                 auto text = valueToText(arg);
                 if (!text)
                     return Value::null();
                 out += *text;
             }
             return Value::text(out);
         }});
    add({sig("CONCAT_WS", {TypeSpec::Text, TypeSpec::Text}, TypeSpec::Text,
             /*variadic=*/true),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto sep = valueToText(args[0]);
             if (!sep)
                 return Value::null();
             std::string out;
             bool first = true;
             for (size_t i = 1; i < args.size(); ++i) {
                 auto text = valueToText(args[i]);
                 if (!text)
                     continue; // CONCAT_WS skips NULLs.
                 if (!first)
                     out += *sep;
                 out += *text;
                 first = false;
             }
             return Value::text(out);
         }});
    add({sig("REVERSE", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) {
             return textUnary(args, [](const std::string &s) {
                 return std::string(s.rbegin(), s.rend());
             });
         }});
    add({sig("REPEAT", {TypeSpec::Text, TypeSpec::Int}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto count = valueToNumeric(args[1]);
             if (!text || !count)
                 return Value::null();
             if (*count <= 0 || text->empty())
                 return Value::text("");
             // Divide rather than multiply: size * count can overflow.
             if (*count > kMaxGeneratedStringLength /
                              static_cast<int64_t>(text->size())) {
                 return Status::runtimeError("string too long in REPEAT");
             }
             std::string out;
             for (int64_t i = 0; i < *count; ++i)
                 out += *text;
             return Value::text(out);
         }});
    add({sig("LEFT", {TypeSpec::Text, TypeSpec::Int}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto count = valueToNumeric(args[1]);
             if (!text || !count)
                 return Value::null();
             int64_t n = std::clamp<int64_t>(
                 *count, 0, static_cast<int64_t>(text->size()));
             return Value::text(text->substr(0, static_cast<size_t>(n)));
         }});
    add({sig("RIGHT", {TypeSpec::Text, TypeSpec::Int}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto count = valueToNumeric(args[1]);
             if (!text || !count)
                 return Value::null();
             int64_t n = std::clamp<int64_t>(
                 *count, 0, static_cast<int64_t>(text->size()));
             return Value::text(
                 text->substr(text->size() - static_cast<size_t>(n)));
         }});
    add({sig("ASCII", {TypeSpec::Text}, TypeSpec::Int),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             if (!text)
                 return Value::null();
             if (text->empty())
                 return Value::null();
             return Value::integer(
                 static_cast<unsigned char>((*text)[0]));
         }});
    add({sig("CHR", {TypeSpec::Int}, TypeSpec::Text),
         [](Args args, Ctx ctx) -> StatusOr<Value> {
             auto code = valueToNumeric(args[0]);
             if (!code)
                 return Value::null();
             if (*code < 1 || *code > 127)
                 return domainError(ctx, "CHR");
             return Value::text(std::string(
                 1, static_cast<char>(*code)));
         }});
    add({sig("HEX", {TypeSpec::Text}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             if (!text)
                 return Value::null();
             static const char digits[] = "0123456789ABCDEF";
             std::string out;
             out.reserve(text->size() * 2);
             for (unsigned char c : *text) {
                 out.push_back(digits[c >> 4]);
                 out.push_back(digits[c & 0xF]);
             }
             return Value::text(out);
         }});
    add({sig("QUOTE", {TypeSpec::Any}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             return Value::text(args[0].literal());
         }});
    add({sig("SPACE", {TypeSpec::Int}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto count = valueToNumeric(args[0]);
             if (!count)
                 return Value::null();
             if (*count <= 0)
                 return Value::text("");
             if (*count > kMaxGeneratedStringLength)
                 return Status::runtimeError("string too long in SPACE");
             return Value::text(
                 std::string(static_cast<size_t>(*count), ' '));
         }});
    auto pad = [](Args args, bool left) -> StatusOr<Value> {
        auto text = valueToText(args[0]);
        auto width = valueToNumeric(args[1]);
        if (!text || !width)
            return Value::null();
        std::string fill = " ";
        if (args.size() >= 3) {
            auto custom = valueToText(args[2]);
            if (!custom)
                return Value::null();
            if (custom->empty())
                return Value::text(*text);
            fill = *custom;
        }
        if (*width <= static_cast<int64_t>(text->size())) {
            return Value::text(
                text->substr(0, static_cast<size_t>(
                                    std::max<int64_t>(*width, 0))));
        }
        if (*width > kMaxGeneratedStringLength)
            return Status::runtimeError("string too long in PAD");
        std::string padding;
        size_t needed = static_cast<size_t>(*width) - text->size();
        while (padding.size() < needed)
            padding += fill;
        padding.resize(needed);
        return Value::text(left ? padding + *text : *text + padding);
    };
    FunctionSig lpad_sig =
        sig("LPAD", {TypeSpec::Text, TypeSpec::Int, TypeSpec::Text},
            TypeSpec::Text);
    lpad_sig.minArgs = 2; // fill argument defaults to a space
    add({lpad_sig,
         [pad](Args args, Ctx) { return pad(args, /*left=*/true); }});
    FunctionSig rpad_sig =
        sig("RPAD", {TypeSpec::Text, TypeSpec::Int, TypeSpec::Text},
            TypeSpec::Text);
    rpad_sig.minArgs = 2;
    add({rpad_sig,
         [pad](Args args, Ctx) { return pad(args, /*left=*/false); }});
    add({sig("STARTS_WITH", {TypeSpec::Text, TypeSpec::Text},
             TypeSpec::Bool),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto text = valueToText(args[0]);
             auto prefix = valueToText(args[1]);
             if (!text || !prefix)
                 return Value::null();
             return Value::boolean(startsWith(*text, *prefix));
         }});

    // ------------------------------------------------------------------
    // Conditional / NULL handling (8).
    // ------------------------------------------------------------------
    add({sig("NULLIF", {TypeSpec::Any, TypeSpec::Any}, TypeSpec::Any,
             /*variadic=*/false, /*ret_same=*/true),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto cmp = compareSql(args[0], args[1]);
             if (cmp.has_value() && *cmp == 0)
                 return Value::null();
             return args[0];
         }});
    add({sig("COALESCE", {TypeSpec::Any, TypeSpec::Any}, TypeSpec::Any,
             /*variadic=*/true, /*ret_same=*/true),
         [](Args args, Ctx) -> StatusOr<Value> {
             for (const Value &arg : args) {
                 if (!arg.isNull())
                     return arg;
             }
             return Value::null();
         }});
    auto ifnull = [](Args args, Ctx) -> StatusOr<Value> {
        return args[0].isNull() ? args[1] : args[0];
    };
    add({sig("IFNULL", {TypeSpec::Any, TypeSpec::Any}, TypeSpec::Any,
             false, true),
         ifnull});
    add({sig("NVL", {TypeSpec::Any, TypeSpec::Any}, TypeSpec::Any, false,
             true),
         ifnull});
    add({sig("IIF", {TypeSpec::Bool, TypeSpec::Any, TypeSpec::Any},
             TypeSpec::Any),
         [](Args args, Ctx) -> StatusOr<Value> {
             auto truth = valueTruth(args[0]);
             return (truth.has_value() && *truth) ? args[1] : args[2];
         }});
    auto extremum = [](Args args, bool greatest) -> StatusOr<Value> {
        // MySQL semantics: NULL if any argument is NULL.
        for (const Value &arg : args) {
            if (arg.isNull())
                return Value::null();
        }
        const Value *best = &args[0];
        for (const Value &arg : args) {
            auto cmp = compareSql(arg, *best);
            if (cmp.has_value() &&
                ((greatest && *cmp > 0) || (!greatest && *cmp < 0))) {
                best = &arg;
            }
        }
        return *best;
    };
    add({sig("GREATEST", {TypeSpec::Any, TypeSpec::Any}, TypeSpec::Any,
             /*variadic=*/true, /*ret_same=*/true),
         [extremum](Args args, Ctx) { return extremum(args, true); }});
    add({sig("LEAST", {TypeSpec::Any, TypeSpec::Any}, TypeSpec::Any,
             /*variadic=*/true, /*ret_same=*/true),
         [extremum](Args args, Ctx) { return extremum(args, false); }});
    add({sig("TYPEOF", {TypeSpec::Any}, TypeSpec::Text),
         [](Args args, Ctx) -> StatusOr<Value> {
             switch (args[0].kind()) {
               case Value::Kind::Null: return Value::text("null");
               case Value::Kind::Int: return Value::text("integer");
               case Value::Kind::Text: return Value::text("text");
               case Value::Kind::Bool: return Value::text("boolean");
             }
             return Status::internal("bad value kind");
         }});

    // ------------------------------------------------------------------
    // Aggregates (5) — registered for name/arity/type metadata only;
    // their evaluation happens in the evaluator's aggregate path.
    // ------------------------------------------------------------------
    auto aggregate_misuse = [](Args, Ctx) -> StatusOr<Value> {
        return Status::semanticError("misuse of aggregate function");
    };
    add({sig("COUNT", {TypeSpec::Any}, TypeSpec::Int), aggregate_misuse});
    add({sig("SUM", {TypeSpec::Int}, TypeSpec::Int), aggregate_misuse});
    add({sig("AVG", {TypeSpec::Int}, TypeSpec::Int), aggregate_misuse});
    add({sig("MIN", {TypeSpec::Any}, TypeSpec::Any, false, true),
         aggregate_misuse});
    add({sig("MAX", {TypeSpec::Any}, TypeSpec::Any, false, true),
         aggregate_misuse});
}

} // namespace sqlpp
