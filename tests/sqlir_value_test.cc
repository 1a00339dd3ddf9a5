/**
 * @file
 * Unit tests for Value, DataType, and ResultSet multiset comparison,
 * plus a property test of the row order against literal() keys.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <variant>
#include <vector>

#include "sqlir/value.h"
#include "util/rng.h"

namespace sqlpp {
namespace {

TEST(DataTypeTest, Names)
{
    EXPECT_STREQ(dataTypeName(DataType::Int), "INTEGER");
    EXPECT_STREQ(dataTypeName(DataType::Text), "TEXT");
    EXPECT_STREQ(dataTypeName(DataType::Bool), "BOOLEAN");
}

TEST(DataTypeTest, ParseAliases)
{
    DataType type;
    EXPECT_TRUE(parseDataType("int", type));
    EXPECT_EQ(type, DataType::Int);
    EXPECT_TRUE(parseDataType("VARCHAR", type));
    EXPECT_EQ(type, DataType::Text);
    EXPECT_TRUE(parseDataType("Bool", type));
    EXPECT_EQ(type, DataType::Bool);
    EXPECT_FALSE(parseDataType("BLOB", type));
}

TEST(ValueTest, DefaultIsNull)
{
    Value v;
    EXPECT_TRUE(v.isNull());
    EXPECT_EQ(v.kind(), Value::Kind::Null);
}

TEST(ValueTest, FactoriesAndAccessors)
{
    EXPECT_EQ(Value::integer(42).asInt(), 42);
    EXPECT_EQ(Value::text("x").asText(), "x");
    EXPECT_TRUE(Value::boolean(true).asBool());
    EXPECT_EQ(Value::integer(-1).kind(), Value::Kind::Int);
    EXPECT_EQ(Value::text("").kind(), Value::Kind::Text);
    EXPECT_EQ(Value::boolean(false).kind(), Value::Kind::Bool);
}

TEST(ValueTest, ToStringAndLiteral)
{
    EXPECT_EQ(Value::null().toString(), "NULL");
    EXPECT_EQ(Value::integer(7).toString(), "7");
    EXPECT_EQ(Value::text("hi").toString(), "hi");
    EXPECT_EQ(Value::boolean(true).toString(), "TRUE");

    EXPECT_EQ(Value::null().literal(), "NULL");
    EXPECT_EQ(Value::text("it's").literal(), "'it''s'");
    EXPECT_EQ(Value::boolean(false).literal(), "FALSE");
}

TEST(ValueTest, TotalOrderAcrossKinds)
{
    // NULL < BOOL < INT < TEXT.
    EXPECT_LT(Value::null().compareTotal(Value::boolean(false)), 0);
    EXPECT_LT(Value::boolean(true).compareTotal(Value::integer(0)), 0);
    EXPECT_LT(Value::integer(999).compareTotal(Value::text("")), 0);
}

TEST(ValueTest, TotalOrderWithinKinds)
{
    EXPECT_EQ(Value::null().compareTotal(Value::null()), 0);
    EXPECT_LT(Value::boolean(false).compareTotal(Value::boolean(true)), 0);
    EXPECT_LT(Value::integer(-5).compareTotal(Value::integer(3)), 0);
    EXPECT_GT(Value::text("b").compareTotal(Value::text("a")), 0);
    EXPECT_EQ(Value::text("a").compareTotal(Value::text("a")), 0);
}

TEST(ValueTest, HashDistinguishesKinds)
{
    // 1, '1', and TRUE must hash differently (result comparison depends
    // on it).
    EXPECT_NE(Value::integer(1).hash(), Value::text("1").hash());
    EXPECT_NE(Value::integer(1).hash(), Value::boolean(true).hash());
    EXPECT_EQ(Value::integer(1).hash(), Value::integer(1).hash());
}

// Pins: the exact renderings, hashes and order of the boundary values.
// Result digests, dossier ids and plan fingerprints are built from
// these, so a change of Value's representation must keep them.

const int64_t kMin = std::numeric_limits<int64_t>::min();
const int64_t kMax = std::numeric_limits<int64_t>::max();
const std::string kText40 = "0123456789abcdefghijklmnopqrstuvwxyzABCD";

TEST(ValueTest, PinsIntegerBoundaries)
{
    EXPECT_EQ(Value::integer(kMin).hash(), 0x2f63e44c8601fa24ULL);
    EXPECT_EQ(Value::integer(kMax).hash(), 0x2fcdb46494ab8917ULL);
    EXPECT_EQ(Value::integer(0).hash(), 0xaf63e44c8601fa24ULL);
    EXPECT_EQ(Value::integer(kMin).literal(), "-9223372036854775808");
    EXPECT_EQ(Value::integer(kMax).literal(), "9223372036854775807");
    EXPECT_EQ(Value::integer(0).literal(), "0");
    EXPECT_EQ(Value::integer(kMin).toString(), "-9223372036854775808");
    EXPECT_EQ(Value::integer(kMax).toString(), "9223372036854775807");
    EXPECT_EQ(Value::integer(0).toString(), "0");
}

TEST(ValueTest, PinsTexts)
{
    ASSERT_EQ(kText40.size(), 40u);
    EXPECT_EQ(Value::text("").hash(), 0xaf63e94c860202a3ULL);
    EXPECT_EQ(Value::text(kText40).hash(), 0x98f6a482f18e6b5bULL);
    EXPECT_EQ(Value::text("it's").hash(), 0xd96f236c0b764418ULL);
    EXPECT_EQ(Value::text("").literal(), "''");
    EXPECT_EQ(Value::text(kText40).literal(), "'" + kText40 + "'");
    EXPECT_EQ(Value::text("it's").literal(), "'it''s'");
    EXPECT_EQ(Value::text("").toString(), "");
    EXPECT_EQ(Value::text(kText40).toString(), kText40);
    EXPECT_EQ(Value::text("it's").toString(), "it's");
}

TEST(ValueTest, PinsBoolsAndNull)
{
    EXPECT_EQ(Value::boolean(true).hash(), 0xda942042e4dd58b5ULL);
    EXPECT_EQ(Value::boolean(false).hash(), 0x2545f4914f6cdd1dULL);
    EXPECT_EQ(Value::null().hash(), 0x9e3779b97f4a7c15ULL);
    EXPECT_EQ(Value::boolean(true).literal(), "TRUE");
    EXPECT_EQ(Value::boolean(false).literal(), "FALSE");
    EXPECT_EQ(Value::null().literal(), "NULL");
    EXPECT_EQ(Value::boolean(true).toString(), "TRUE");
    EXPECT_EQ(Value::boolean(false).toString(), "FALSE");
    EXPECT_EQ(Value::null().toString(), "NULL");
}

/** The pinned values, in ascending compareTotal order. */
std::vector<Value>
pinnedValuesInOrder()
{
    return {Value::null(),         Value::boolean(false),
            Value::boolean(true),  Value::integer(kMin),
            Value::integer(0),     Value::integer(kMax),
            Value::text(""),       Value::text(kText40),
            Value::text("it's")};
}

TEST(ValueTest, PinsCompareTotalExactly)
{
    // compareTotal answers exactly -1, 0 or 1, never another sign.
    std::vector<Value> values = pinnedValuesInOrder();
    for (size_t i = 0; i < values.size(); ++i) {
        for (size_t j = 0; j < values.size(); ++j) {
            int expected = i < j ? -1 : (i > j ? 1 : 0);
            EXPECT_EQ(values[i].compareTotal(values[j]), expected)
                << values[i].literal() << " vs " << values[j].literal();
            EXPECT_EQ(values[i] == values[j], i == j);
            EXPECT_EQ(values[i] < values[j], i < j);
        }
    }
}

/** Every accessor of @p value matches @p expected, kind included. */
void
expectSame(const Value &value, const Value &expected)
{
    ASSERT_EQ(value.kind(), expected.kind());
    EXPECT_EQ(value.isNull(), expected.isNull());
    switch (value.kind()) {
      case Value::Kind::Null: break;
      case Value::Kind::Int:
        EXPECT_EQ(value.asInt(), expected.asInt());
        break;
      case Value::Kind::Text:
        EXPECT_EQ(value.asText(), expected.asText());
        break;
      case Value::Kind::Bool:
        EXPECT_EQ(value.asBool(), expected.asBool());
        break;
    }
    EXPECT_EQ(value.hash(), expected.hash());
    EXPECT_EQ(value.literal(), expected.literal());
    EXPECT_EQ(value.compareTotal(expected), 0);
}

TEST(ValueTest, CopyAndMoveEveryKind)
{
    for (const Value &original : pinnedValuesInOrder()) {
        SCOPED_TRACE(original.literal());
        Value copy(original);
        expectSame(copy, original);

        Value source(original);
        Value moved(std::move(source));
        expectSame(moved, original);

        // Assignment over every kind, so each kind replaces each other.
        for (const Value &target : pinnedValuesInOrder()) {
            Value assigned(target);
            assigned = original;
            expectSame(assigned, original);

            Value move_source(original);
            Value move_assigned(target);
            move_assigned = std::move(move_source);
            expectSame(move_assigned, original);
        }

        Value self(original);
        const Value &alias = self;
        self = alias;
        expectSame(self, original);
    }
}

TEST(ValueTest, MovedFromReadsNull)
{
    static_assert(sizeof(Value) == 16);
    for (const Value &original : pinnedValuesInOrder()) {
        SCOPED_TRACE(original.literal());
        Value source(original);
        Value moved(std::move(source));
        EXPECT_TRUE(source.isNull());
        EXPECT_EQ(source.literal(), "NULL");

        Value assign_source(original);
        Value assigned = Value::text("target");
        assigned = std::move(assign_source);
        EXPECT_TRUE(assign_source.isNull());
        expectSame(assigned, original);

        // Self-move keeps the value.
        Value self(original);
        Value &alias = self;
        self = std::move(alias);
        expectSame(self, original);
    }
}

TEST(ValueTest, TextCopyOutlivesItsSource)
{
    Value copy;
    Value assigned = Value::integer(1);
    {
        Value source = Value::text(kText40);
        copy = source;
        Value second(source);
        assigned = second;
    }
    EXPECT_EQ(copy.asText(), kText40);
    EXPECT_EQ(assigned.asText(), kText40);
    std::vector<Value> row;
    {
        Value source = Value::text("it's");
        for (int i = 0; i < 8; ++i)
            row.push_back(source);
    }
    row.resize(64); // Reallocates, moving the shared copies.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(row[i].literal(), "'it''s'");
    EXPECT_TRUE(row[8].isNull());
}

TEST(ValueTest, SharedTextAcrossThreads)
{
    // Every copy below shares one text block; the ThreadSanitizer lane
    // checks the reference count under concurrent copy, assign and
    // destroy.
    const Value shared = Value::text(kText40);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&shared, t] {
            std::vector<Value> held(8);
            for (int i = 0; i < 20000; ++i) {
                Value copy(shared);
                held[(i + t) % held.size()] = copy;
                Value moved(std::move(copy));
                held[(i * 3 + t) % held.size()] = std::move(moved);
                if (i % 7 == 0)
                    held[i % held.size()] = Value::integer(i);
            }
            for (const Value &value : held) {
                if (value.kind() == Value::Kind::Text) {
                    EXPECT_EQ(value.asText(), kText40);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(shared.asText(), kText40);
    EXPECT_EQ(shared.hash(), 0x98f6a482f18e6b5bULL);
}

TEST(ValueTest, WrongKindAccessThrows)
{
    EXPECT_THROW(Value::null().asInt(), std::bad_variant_access);
    EXPECT_THROW(Value::null().asText(), std::bad_variant_access);
    EXPECT_THROW(Value::null().asBool(), std::bad_variant_access);
    EXPECT_THROW(Value::integer(1).asText(), std::bad_variant_access);
    EXPECT_THROW(Value::integer(1).asBool(), std::bad_variant_access);
    EXPECT_THROW(Value::text("1").asInt(), std::bad_variant_access);
    EXPECT_THROW(Value::text("1").asBool(), std::bad_variant_access);
    EXPECT_THROW(Value::boolean(true).asInt(), std::bad_variant_access);
    EXPECT_THROW(Value::boolean(true).asText(), std::bad_variant_access);
}

TEST(ResultSetTest, MultisetEqualityIgnoresOrder)
{
    ResultSet a({"c0"});
    a.addRow(Row{Value::integer(1)});
    a.addRow(Row{Value::integer(2)});
    ResultSet b({"x"});
    b.addRow(Row{Value::integer(2)});
    b.addRow(Row{Value::integer(1)});
    EXPECT_TRUE(a.sameRowMultiset(b));
}

TEST(ResultSetTest, MultisetRespectsDuplicateCounts)
{
    ResultSet a({"c0"});
    a.addRow(Row{Value::integer(1)});
    a.addRow(Row{Value::integer(1)});
    ResultSet b({"c0"});
    b.addRow(Row{Value::integer(1)});
    EXPECT_FALSE(a.sameRowMultiset(b));
    b.addRow(Row{Value::integer(1)});
    EXPECT_TRUE(a.sameRowMultiset(b));
}

TEST(ResultSetTest, MultisetDistinguishesNullFromZero)
{
    ResultSet a({"c0"});
    a.addRow(Row{Value::null()});
    ResultSet b({"c0"});
    b.addRow(Row{Value::integer(0)});
    EXPECT_FALSE(a.sameRowMultiset(b));
}

TEST(ResultSetTest, FingerprintOrderInsensitive)
{
    ResultSet a({"c0", "c1"});
    a.addRow(Row{Value::integer(1), Value::text("x")});
    a.addRow(Row{Value::null(), Value::boolean(true)});
    ResultSet b({"c0", "c1"});
    b.addRow(Row{Value::null(), Value::boolean(true)});
    b.addRow(Row{Value::integer(1), Value::text("x")});
    EXPECT_EQ(a.multisetFingerprint(), b.multisetFingerprint());
}

TEST(ResultSetTest, ToStringTruncates)
{
    ResultSet rs({"c0"});
    for (int i = 0; i < 20; ++i)
        rs.addRow(Row{Value::integer(i)});
    std::string rendered = rs.toString(4);
    EXPECT_NE(rendered.find("20 rows total"), std::string::npos);
}

TEST(ResultSetTest, RowsDifferingOnlyAcrossTheUnitSeparatorDiffer)
{
    ResultSet a({"c0", "c1"});
    a.addRow(Row{Value::text("a\x1f" "tb"), Value::text("c")});
    ResultSet b({"c0", "c1"});
    b.addRow(Row{Value::text("a"), Value::text("b\x1f" "tc")});
    EXPECT_NE(compareRows(a.rows()[0], b.rows()[0]), 0);
    EXPECT_FALSE(a.sameRowMultiset(b));
}

TEST(ResultSetTest, MultisetCountsEachDuplicateRow)
{
    // Same size and the same distinct rows, other duplicate counts.
    ResultSet a({"c0", "c1"});
    a.addRow(Row{Value::integer(1), Value::text("x")});
    a.addRow(Row{Value::integer(2), Value::null()});
    a.addRow(Row{Value::integer(1), Value::text("x")});
    ResultSet b({"c0", "c1"});
    b.addRow(Row{Value::integer(2), Value::null()});
    b.addRow(Row{Value::integer(1), Value::text("x")});
    b.addRow(Row{Value::integer(2), Value::null()});
    EXPECT_FALSE(a.sameRowMultiset(b));
    EXPECT_FALSE(sameRows(sortedRows({&a}), sortedRows({&b})));

    ResultSet c({"c0", "c1"});
    c.addRow(Row{Value::integer(1), Value::text("x")});
    c.addRow(Row{Value::integer(1), Value::text("x")});
    c.addRow(Row{Value::integer(2), Value::null()});
    EXPECT_TRUE(a.sameRowMultiset(c));
    EXPECT_TRUE(sameRows(sortedRows({&a}), sortedRows({&c})));
    EXPECT_EQ(a.multisetFingerprint(), c.multisetFingerprint());

    // A duplicate split across partitions counts once per partition.
    ResultSet parts[3] = {ResultSet({"c0", "c1"}), ResultSet({"c0", "c1"}),
                          ResultSet({"c0", "c1"})};
    parts[0].addRow(Row{Value::integer(1), Value::text("x")});
    parts[1].addRow(Row{Value::integer(2), Value::null()});
    parts[2].addRow(Row{Value::integer(1), Value::text("x")});
    auto split = sortedRows({&parts[0], &parts[1], &parts[2]});
    EXPECT_EQ(split.size(), 3u);
    EXPECT_TRUE(sameRows(sortedRows({&a}), split));
    EXPECT_FALSE(sameRows(sortedRows({&b}), split));
}

TEST(ResultSetTest, OneCellOfAnotherKindMakesRowsDiffer)
{
    // 1 and TRUE are equal under SQL comparison but not as result cells.
    ResultSet a({"c0", "c1"});
    a.addRow(Row{Value::text("k"), Value::integer(1)});
    ResultSet b({"c0", "c1"});
    b.addRow(Row{Value::text("k"), Value::boolean(true)});
    EXPECT_NE(compareRows(a.rows()[0], b.rows()[0]), 0);
    EXPECT_FALSE(a.sameRowMultiset(b));
    EXPECT_FALSE(sameRows(sortedRows({&a}), sortedRows({&b})));
    EXPECT_FALSE(a.rows() == b.rows());
    EXPECT_NE(a.multisetFingerprint(), b.multisetFingerprint());
}

TEST(ResultSetTest, OrderedEqualityComparesRowsInOrder)
{
    ResultSet a({"c0"});
    a.addRow(Row{Value::integer(1)});
    a.addRow(Row{Value::integer(2)});
    ResultSet b({"c0"});
    b.addRow(Row{Value::integer(2)});
    b.addRow(Row{Value::integer(1)});
    ResultSet renamed({"other"});
    renamed.addRow(Row{Value::integer(1)});
    renamed.addRow(Row{Value::integer(2)});
    ResultSet prefix({"c0"});
    prefix.addRow(Row{Value::integer(1)});
    EXPECT_TRUE(a.sameRowMultiset(b));
    EXPECT_FALSE(a.rows() == b.rows());
    EXPECT_TRUE(a.rows() != b.rows());
    EXPECT_TRUE(a.rows() == renamed.rows()); // names are not compared
    EXPECT_FALSE(a.rows() == prefix.rows());
    EXPECT_FALSE(prefix.rows() == a.rows());
}

TEST(ResultSetTest, EmptyResultKeepsItsColumns)
{
    ResultSet empty({"c0", "c1"});
    EXPECT_EQ(empty.rowCount(), 0u);
    EXPECT_EQ(empty.columnCount(), 2u);
    EXPECT_EQ(empty.rows().size(), 0u);
    EXPECT_EQ(empty.toString(), "c0 | c1\n");
    ResultSet other({"x", "y"});
    EXPECT_TRUE(empty.sameRowMultiset(other));
    EXPECT_TRUE(empty.rows() == other.rows());
    EXPECT_TRUE(sortedRows({&empty, &other}).empty());
    other.addRow(Row{Value::null(), Value::null()});
    EXPECT_EQ(other.rowCount(), 1u);
    EXPECT_FALSE(empty.sameRowMultiset(other));
    EXPECT_FALSE(other.sameRowMultiset(empty));
    EXPECT_FALSE(empty.rows() == other.rows());
}

// Property test: the compareRows-based multiset comparison agrees with
// the literal()-key comparator it replaced, which stays here as the
// reference. literal() is injective and kind-exact ('1' is not 1), so
// the two must agree on every pair.

/** The former comparator: sorted per-row strings of literal()s. */
bool
literalKeyMultisetEqual(const ResultSet &lhs, const ResultSet &rhs)
{
    if (lhs.rowCount() != rhs.rowCount())
        return false;
    auto keys = [](const ResultSet &set) {
        std::vector<std::string> out;
        for (RowView row : set.rows()) {
            std::string key;
            for (const Value &value : row) {
                key += value.literal();
                key.push_back('\x1f');
            }
            out.push_back(std::move(key));
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    return keys(lhs) == keys(rhs);
}

/** A value biased towards the cases a string encoding gets wrong. */
Value
edgeValue(Rng &rng)
{
    static const std::vector<std::string> texts = {
        "", "1", "0", "NULL", "TRUE", "'", "a'b", "''", "\x1f",
        "a\x1f" "tb", "a", "b\x1f" "tc", "1\x1f", "-9223372036854775808",
    };
    switch (rng.below(8)) {
      case 0: return Value::null();
      case 1: return Value::boolean(rng.coin());
      case 2: return Value::integer(rng.coin() ? 1 : 0);
      case 3:
        return Value::integer(rng.coin()
                                  ? std::numeric_limits<int64_t>::min()
                                  : std::numeric_limits<int64_t>::max());
      case 4: return Value::integer(rng.range(-3, 3));
      case 5: return Value::text(rng.pick(texts));
      case 6: return Value::text(rng.text(3));
      default: return Value::text(rng.pick(texts) + rng.pick(texts));
    }
}

Row
edgeRow(Rng &rng, size_t arity)
{
    Row row;
    for (size_t i = 0; i < arity; ++i)
        row.push_back(edgeValue(rng));
    return row;
}

TEST(RowOrderPropertyTest, MultisetCompareAgreesWithLiteralKeys)
{
    Rng rng(0x5eed0016);
    size_t equal = 0;
    size_t unequal_same_size = 0;
    for (int trial = 0; trial < 12000; ++trial) {
        size_t arity = 1 + rng.below(3);
        // A small pool, so rows repeat and duplicate counts matter.
        std::vector<Row> pool;
        for (size_t i = 0, n = 1 + rng.below(4); i < n; ++i)
            pool.push_back(edgeRow(rng, arity));
        const std::vector<std::string> columns(arity, "c");
        ResultSet lhs(columns);
        for (size_t i = 0, n = rng.below(7); i < n; ++i)
            lhs.addRow(rng.pick(pool));

        // The other side: a permutation of lhs, then maybe a mutation
        // that keeps the size (so only the row contents or duplicate
        // counts differ), or an independent draw.
        std::vector<Row> rows;
        for (RowView row : lhs.rows())
            rows.emplace_back(row.begin(), row.end());
        for (size_t i = rows.size(); i > 1; --i)
            std::swap(rows[i - 1], rows[rng.below(i)]);
        switch (rng.below(4)) {
          case 0:
            if (!rows.empty())
                rows[rng.below(rows.size())] = rng.pick(pool);
            break;
          case 1:
            if (!rows.empty())
                rows[rng.below(rows.size())] = edgeRow(rng, arity);
            break;
          case 2:
            rows.clear();
            for (size_t i = 0, n = rng.below(7); i < n; ++i)
                rows.push_back(rng.pick(pool));
            break;
          default: break;
        }
        ResultSet rhs(columns);
        for (Row &row : rows)
            rhs.addRow(row);

        bool expected = literalKeyMultisetEqual(lhs, rhs);
        ASSERT_EQ(lhs.sameRowMultiset(rhs), expected)
            << "trial " << trial << "\n" << lhs.toString() << "vs\n"
            << rhs.toString();
        ASSERT_EQ(rhs.sameRowMultiset(lhs), expected);
        equal += expected;
        unequal_same_size +=
            !expected && lhs.rowCount() == rhs.rowCount();

        // The TLP form: rhs split into three partitions compares in
        // place exactly as their concatenation does.
        size_t cut_a = rng.below(rows.size() + 1);
        size_t cut_b = cut_a + rng.below(rows.size() - cut_a + 1);
        ResultSet parts[3] = {ResultSet(columns), ResultSet(columns),
                              ResultSet(columns)};
        for (size_t i = 0; i < rows.size(); ++i)
            parts[i < cut_a ? 0 : (i < cut_b ? 1 : 2)].addRow(rows[i]);
        ASSERT_EQ(sameRows(sortedRows({&lhs}),
                           sortedRows({&parts[0], &parts[1], &parts[2]})),
                  expected)
            << "trial " << trial;
    }
    // Both verdicts, and same-size mismatches, are well exercised.
    EXPECT_GT(equal, 2000u);
    EXPECT_GT(unequal_same_size, 2000u);
}

TEST(RowOrderPropertyTest, CompareRowsIsATotalOrderMatchingEquality)
{
    Rng rng(0x5eed0017);
    auto sign = [](int c) { return (c > 0) - (c < 0); };
    auto literal_key = [](const Row &row) {
        std::string key;
        for (const Value &value : row) {
            key += value.literal();
            key.push_back('\x1f');
        }
        return key;
    };
    for (int trial = 0; trial < 12000; ++trial) {
        // Mixed arities exercise the shorter-row-first tie break.
        Row a = edgeRow(rng, rng.below(3));
        Row b = rng.chance(0.3) ? a : edgeRow(rng, rng.below(3));
        Row c = rng.chance(0.3) ? b : edgeRow(rng, rng.below(3));
        int ab = compareRows(a, b);
        int bc = compareRows(b, c);
        int ac = compareRows(a, c);
        ASSERT_EQ(sign(ab), -sign(compareRows(b, a)));
        ASSERT_EQ(ab == 0, a == b);
        ASSERT_EQ(ab == 0, literal_key(a) == literal_key(b));
        if (ab <= 0 && bc <= 0) {
            ASSERT_LE(ac, 0);
            if (ab < 0 || bc < 0) {
                ASSERT_LT(ac, 0);
            }
        }
        if (ab >= 0 && bc >= 0) {
            ASSERT_GE(ac, 0);
            if (ab > 0 || bc > 0) {
                ASSERT_GT(ac, 0);
            }
        }
    }
}

TEST(RowOrderPropertyTest, KindsNeverCompareEqualAcrossLiterals)
{
    EXPECT_NE(compareRows(Row{Value::text("1")}, Row{Value::integer(1)}),
              0);
    EXPECT_NE(
        compareRows(Row{Value::boolean(true)}, Row{Value::integer(1)}), 0);
    EXPECT_NE(compareRows(Row{Value::text("NULL")}, Row{Value::null()}),
              0);
    EXPECT_NE(compareRows(Row{Value::text("")}, Row{Value::null()}), 0);
    EXPECT_LT(compareRows(Row{Value::integer(1)},
                          Row{Value::integer(1), Value::null()}),
              0);
    EXPECT_TRUE(Value::integer(std::numeric_limits<int64_t>::min()) <
                Value::integer(std::numeric_limits<int64_t>::max()));
    EXPECT_FALSE(Value::text("a") < Value::text("a"));
}

} // namespace
} // namespace sqlpp
