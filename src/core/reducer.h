/**
 * @file
 * Test-case reduction (delta debugging).
 *
 * The paper's workflow processes "automatically-reduced and prioritized
 * bug-inducing test cases". The reducer shrinks a bug case along two
 * axes while the provided replay predicate keeps reporting the bug:
 *
 *  1. setup statements — greedy single-statement elimination to a
 *     fixed point (the 1-minimal core of ddmin for this granularity);
 *  2. the oracle predicate — structural simplification that tries to
 *     replace each node by one of its children or by a literal.
 */
#ifndef SQLPP_CORE_REDUCER_H
#define SQLPP_CORE_REDUCER_H

#include <functional>
#include <string>
#include <vector>

namespace sqlpp {

/** A reproducible bug-inducing test case. */
struct BugCase
{
    /** Dialect the bug was found on. */
    std::string dialect;
    /** Oracle that flagged it ("TLP" / "NOREC"). */
    std::string oracle;
    /**
     * execModeName() of the pipeline the bug was found under; empty in
     * legacy cases and treated as "optimized" on replay. A string (not
     * ExecMode) so replaying a dossier survives unknown future modes.
     * Excluded from bugCaseId so case identity is mode-independent.
     */
    std::string execMode;
    /** DDL/DML statements that rebuild the database state. */
    std::vector<std::string> setup;
    /** The predicate-free base query (SELECT ... FROM ...). */
    std::string baseText;
    /** The boolean predicate the oracle partitions/counts. */
    std::string predicateText;
    /** Features recorded while generating the case (prioritization). */
    std::vector<std::string> featureNames;
    /** Oracle evidence at detection time. */
    std::string details;
    /**
     * Every SQL query the oracle issued, in order — including failed
     * probes — so a repro carries the full statement list even after
     * reduction rewrote base/predicate.
     */
    std::vector<std::string> queries;

    bool operator==(const BugCase &other) const = default;
};

/**
 * Replay predicate: rebuilds the database, reruns the oracle, and
 * returns true when the bug still manifests.
 */
using ReplayFn = std::function<bool(const BugCase &)>;

/** Reduction statistics, for reporting. */
struct ReduceStats
{
    size_t setupBefore = 0;
    size_t setupAfter = 0;
    size_t predicateNodesBefore = 0;
    size_t predicateNodesAfter = 0;
    size_t replays = 0;

    bool operator==(const ReduceStats &other) const = default;
};

/**
 * Reduce a bug case in place. The replay function must be pure with
 * respect to the case (it creates a fresh database per call).
 *
 * @return statistics about the reduction.
 */
ReduceStats reduceBugCase(BugCase &bug, const ReplayFn &replay,
                          size_t max_replays = 400);

} // namespace sqlpp

#endif // SQLPP_CORE_REDUCER_H
