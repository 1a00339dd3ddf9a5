/**
 * @file
 * Ground-truth fault × oracle detection matrix.
 *
 * The fault-injection substrate exists so oracle sensitivity can be
 * *measured*: for every injected fault we run a fixed-seed mini
 * campaign on a dialect carrying exactly that one fault, once per
 * oracle (TLP, NoREC, PQS, EET, ISO), and record detected/undetected.
 * The full 26-fault × 5-oracle grid is pinned by a checked-in golden
 * file (tests/golden/fault_matrix.txt) — any oracle or engine change
 * that shifts detection capability must regenerate it deliberately
 * with SQLPP_UPDATE_GOLDEN=1.
 *
 * Several properties are asserted independently of the golden text:
 *  - the fault-free control profile produces zero bugs for all oracles
 *    (no false positives),
 *  - PQS detects at least one fault that neither TLP nor NoREC detects
 *    (the containment oracle widens the detectable-bug classes),
 *  - EET detects at least one fault no other oracle detects (rewrite
 *    wrappers reach planner/evaluator paths WHERE-based checks never
 *    steer onto), and
 *  - the isolation faults split cleanly: every one is detected by ISO
 *    and by no single-session oracle (they are single-session no-ops),
 *    while ISO stays silent on every single-session fault (the
 *    interleaving generator's restricted vocabulary never reaches
 *    their trigger conditions).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/campaign.h"
#include "engine/faults.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

const char *const kOracles[] = {"TLP", "NOREC", "PQS", "EET", "ISO"};

/**
 * The capability-maximal base the single-fault dialects derive from:
 * the fault-free reference profile with dynamic typing (so mixed-type
 * faults can manifest) and null-safe equality restored (postgres-like
 * drops <=>, which FaultId::NullSafeEqBothNullFalse needs).
 */
DialectProfile
matrixBaseProfile()
{
    DialectProfile profile = *findDialect("postgres-like");
    profile.name = "fault-matrix";
    profile.behavior.staticTyping = false;
    profile.binaryOps.insert(BinaryOp::NullSafeEq);
    profile.faults = FaultSet();
    return profile;
}

/** One fixed-seed mini campaign; true when the oracle flagged a bug. */
bool
detects(const DialectProfile &profile, const std::string &oracle)
{
    CampaignConfig config;
    config.seed = 99173;
    // ISO runs four full interleaving schedules (plus their serial
    // witnesses) per check; the guaranteed fault windows in every
    // schedule make detection deterministic, so far fewer checks give
    // the same verdict at a fraction of the wall clock.
    config.checks = oracle == std::string("ISO") ? 300 : 2000;
    config.oracles = {oracle};
    // The omniscient baseline generator exercises the profile's full
    // capability matrix from the first check — the matrix measures
    // oracle sensitivity, not feedback learning speed.
    config.mode = GeneratorMode::Baseline;
    CampaignRunner runner(config, profile);
    return runner.run().bugsDetected > 0;
}

std::string
renderMatrix(
    const std::map<std::string, std::map<std::string, bool>> &rows,
    const std::vector<std::string> &order)
{
    std::ostringstream out;
    out << "# fault x oracle detection matrix (1 = detected)\n"
        << "# regenerate with SQLPP_UPDATE_GOLDEN=1\n"
        << format("%-34s %4s %6s %4s %4s %4s\n", "fault", "TLP",
                  "NOREC", "PQS", "EET", "ISO");
    for (const std::string &fault : order) {
        const auto &cells = rows.at(fault);
        out << format("%-34s %4d %6d %4d %4d %4d\n", fault.c_str(),
                      cells.at("TLP") ? 1 : 0,
                      cells.at("NOREC") ? 1 : 0,
                      cells.at("PQS") ? 1 : 0,
                      cells.at("EET") ? 1 : 0,
                      cells.at("ISO") ? 1 : 0);
    }
    return out.str();
}

TEST(OracleFaultMatrixTest, MatchesGroundTruthGolden)
{
    std::map<std::string, std::map<std::string, bool>> rows;
    std::vector<std::string> order;

    for (const FaultInfo &row : faultTable()) {
        FaultId fault = row.value;
        DialectProfile profile = matrixBaseProfile();
        profile.faults.enable(fault);
        order.push_back(faultName(fault));
        for (const char *oracle : kOracles)
            rows[faultName(fault)][oracle] = detects(profile, oracle);
    }

    // Fault-free control: all five oracles must stay silent.
    DialectProfile clean = matrixBaseProfile();
    order.push_back("FAULT_FREE");
    for (const char *oracle : kOracles) {
        bool detected = detects(clean, oracle);
        rows["FAULT_FREE"][oracle] = detected;
        EXPECT_FALSE(detected)
            << oracle << " reported a bug on the fault-free profile";
    }

    // The containment oracle must widen the detectable classes: at
    // least one fault only PQS sees.
    size_t pqs_only = 0;
    for (const FaultInfo &fault : faultTable()) {
        const auto &cells = rows.at(fault.name);
        if (cells.at("PQS") && !cells.at("TLP") && !cells.at("NOREC"))
            ++pqs_only;
    }
    EXPECT_GE(pqs_only, 1u)
        << "PQS detected no fault beyond TLP/NoREC reach";

    // The rewrite oracle must widen them again: at least one fault
    // (the root-keyed double-negation collapse by construction) that
    // only EET sees.
    size_t eet_only = 0;
    for (const FaultInfo &fault : faultTable()) {
        const auto &cells = rows.at(fault.name);
        if (cells.at("EET") && !cells.at("TLP") &&
            !cells.at("NOREC") && !cells.at("PQS"))
            ++eet_only;
    }
    EXPECT_GE(eet_only, 1u)
        << "EET detected no fault beyond TLP/NoREC/PQS reach";
    EXPECT_TRUE(rows.at("DOUBLE_NEG_NULL_FALSE").at("EET"))
        << "EET missed the fault designed for its projection lane";

    // The isolation faults and ISO partition the grid: each isolation
    // fault is an ISO-only row (single-session oracles cannot even in
    // principle observe it), and ISO never fires on a single-session
    // fault (the interleaving vocabulary avoids their triggers).
    for (const FaultInfo &fault : faultTable()) {
        const auto &cells = rows.at(fault.name);
        if (fault.family == FaultFamily::Isolation) {
            EXPECT_TRUE(cells.at("ISO")) << "ISO missed " << fault.name;
            for (const char *oracle : {"TLP", "NOREC", "PQS", "EET"})
                EXPECT_FALSE(cells.at(oracle))
                    << oracle << " detected the single-session no-op "
                    << fault.name;
        } else {
            EXPECT_FALSE(cells.at("ISO"))
                << "ISO fired on single-session fault " << fault.name;
        }
    }

    std::string rendered = renderMatrix(rows, order);
    std::string golden_path =
        std::string(SQLPP_GOLDEN_DIR) + "/fault_matrix.txt";
    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << golden_path;
    }

    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << "; run once with SQLPP_UPDATE_GOLDEN=1";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(rendered, expected.str())
        << "detection matrix changed; if intentional, regenerate with "
           "SQLPP_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace sqlpp
