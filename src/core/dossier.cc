#include "core/dossier.h"

#include <filesystem>
#include <fstream>
#include <optional>

#include "core/campaign.h"
#include "dialect/profile.h"
#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {

namespace {

Status
writeFile(const std::filesystem::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Status::runtimeError("cannot open " + path.string() +
                                    " for writing");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.close();
    if (!out)
        return Status::runtimeError("short write to " + path.string());
    return Status::ok();
}

std::string
jsonStringArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += '"';
        out += jsonEscape(items[i]);
        out += '"';
    }
    out += "]";
    return out;
}

std::string
renderDossierJson(const std::string &id, const BugCase &bug,
                  const DossierContext &context)
{
    std::string out = "{\n";
    out += "  \"schema\": \"sqlpp.dossier.v1\",\n";
    out += "  \"id\": \"" + id + "\",\n";
    out += "  \"dialect\": \"" + jsonEscape(bug.dialect) + "\",\n";
    out += "  \"oracle\": \"" + jsonEscape(bug.oracle) + "\",\n";
    out += "  \"execMode\": \"" + jsonEscape(bug.execMode) + "\",\n";
    out += "  \"base\": \"" + jsonEscape(bug.baseText) + "\",\n";
    out += "  \"predicate\": \"" + jsonEscape(bug.predicateText) +
           "\",\n";
    out += "  \"details\": \"" + jsonEscape(bug.details) + "\",\n";
    out += "  \"features\": " + jsonStringArray(bug.featureNames) +
           ",\n";
    out += "  \"setup\": " + jsonStringArray(bug.setup) + ",\n";
    out += "  \"queries\": " + jsonStringArray(bug.queries) + ",\n";
    out += format("  \"shard\": %zu,\n", context.shardIndex);
    out += format("  \"fromCheckpoint\": %s\n",
                  context.fromCheckpoint ? "true" : "false");
    out += "}\n";
    return out;
}

std::string
renderFeedbackJson(const BugCase &bug, const FeedbackTracker &feedback,
                   const FeatureRegistry &registry)
{
    std::string out = "{\n";
    out += "  \"schema\": \"sqlpp.feedback.v1\",\n";
    out += "  \"features\": [\n";
    bool first = true;
    for (const std::string &name : bug.featureNames) {
        FeatureId id = registry.find(name);
        if (id == static_cast<FeatureId>(-1))
            continue;
        const FeatureStats &stat = feedback.stats(id);
        if (!first)
            out += ",\n";
        first = false;
        out += format(
            "    {\"name\": \"%s\", \"executions\": %llu, "
            "\"successes\": %llu, \"posteriorMean\": %.6f, "
            "\"suppressed\": %s}",
            jsonEscape(name).c_str(),
            (unsigned long long)stat.executions,
            (unsigned long long)stat.successes,
            feedback.estimatedProbability(id),
            stat.suppressed ? "true" : "false");
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
renderEventsJsonl(const DossierContext &context, size_t max_events)
{
    const TraceRecorder &recorder = TraceRecorder::instance();
    size_t lane = shardLane(context.shardIndex);
    std::string label = recorder.laneLabel(lane);
    std::string out;
    for (const TraceEvent &event :
         recorder.recentShardEvents(context.shardIndex, max_events)) {
        out += traceEventJson(lane, label, event);
        out += "\n";
    }
    return out;
}

} // namespace

std::string
bugCaseId(const BugCase &bug)
{
    std::string identity = bug.dialect;
    identity += "|";
    identity += bug.oracle;
    identity += "|";
    for (const std::string &statement : bug.setup) {
        identity += statement;
        identity += "\x1f";
    }
    identity += "|";
    identity += bug.baseText;
    identity += "|";
    identity += bug.predicateText;
    return format("%016llx", (unsigned long long)fnv1a(identity));
}

std::string
renderReproSql(const BugCase &bug)
{
    std::string out;
    out += "-- sqlancerpp repro " + bugCaseId(bug) + "\n";
    out += "-- dialect: " + bug.dialect + "\n";
    out += "-- oracle: " + bug.oracle + "\n";
    if (!bug.execMode.empty())
        out += "-- mode: " + bug.execMode + "\n";
    out += "-- base: " + bug.baseText + "\n";
    out += "-- predicate: " + bug.predicateText + "\n";
    out += "\n";
    for (const std::string &statement : bug.setup) {
        out += statement;
        out += "\n";
    }
    if (!bug.queries.empty()) {
        out += "\n-- oracle queries (reference, re-derived on replay):\n";
        for (const std::string &query : bug.queries)
            out += "-- " + query + "\n";
    }
    return out;
}

StatusOr<BugCase>
parseReproFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::runtimeError("cannot open repro file: " + path);
    BugCase bug;
    std::string line;
    auto metadata = [&line](const char *key) -> std::optional<std::string> {
        std::string prefix = std::string("-- ") + key + ": ";
        if (!startsWith(line, prefix))
            return std::nullopt;
        return line.substr(prefix.size());
    };
    while (std::getline(in, line)) {
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (line.empty())
            continue;
        if (startsWith(line, "--")) {
            if (auto value = metadata("dialect"))
                bug.dialect = *value;
            else if (auto value = metadata("oracle"))
                bug.oracle = *value;
            else if (auto value = metadata("mode"))
                bug.execMode = *value;
            else if (auto value = metadata("base"))
                bug.baseText = *value;
            else if (auto value = metadata("predicate"))
                bug.predicateText = *value;
            continue;
        }
        bug.setup.push_back(line);
    }
    if (bug.dialect.empty() || bug.oracle.empty() ||
        bug.baseText.empty() || bug.predicateText.empty())
        return Status::runtimeError(
            "repro file is missing dialect/oracle/base/predicate "
            "metadata: " +
            path);
    return bug;
}

bool
replayReproFile(const std::string &path, std::string *details)
{
    auto parsed = parseReproFile(path);
    if (!parsed.isOk()) {
        if (details != nullptr)
            *details = parsed.status().toString();
        return false;
    }
    const BugCase &bug = parsed.value();
    const DialectProfile *profile = findDialect(bug.dialect);
    if (profile == nullptr) {
        if (details != nullptr)
            *details = "unknown dialect: " + bug.dialect;
        return false;
    }
    OracleResult replayed;
    bool is_bug = CampaignRunner::reproduces(*profile, bug, &replayed);
    if (details != nullptr)
        *details = replayed.details;
    return is_bug;
}

Status
writeBugDossier(const DossierConfig &config, const BugCase &bug,
                const DossierContext &context)
{
    if (config.directory.empty())
        return Status::runtimeError("dossier directory not configured");
    std::string id = bugCaseId(bug);
    std::filesystem::path dir =
        std::filesystem::path(config.directory) / id;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return Status::runtimeError("cannot create dossier directory " +
                                    dir.string() + ": " + ec.message());

    if (Status s = writeFile(dir / "repro.sql", renderReproSql(bug));
        !s.isOk())
        return s;
    if (Status s = writeFile(dir / "dossier.json",
                             renderDossierJson(id, bug, context));
        !s.isOk())
        return s;
    if (context.feedback != nullptr && context.registry != nullptr) {
        if (Status s = writeFile(
                dir / "feedback.json",
                renderFeedbackJson(bug, *context.feedback,
                                   *context.registry));
            !s.isOk())
            return s;
    }
    if (Status s = writeFile(dir / "events.jsonl",
                             renderEventsJsonl(context,
                                               config.maxEvents));
        !s.isOk())
        return s;
    if (Status s = writeFile(dir / "metrics.json", exportMetricsJson());
        !s.isOk())
        return s;
    return Status::ok();
}

} // namespace sqlpp
