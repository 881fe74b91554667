#include "serve/batch.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "io/journal_io.hpp"
#include "util/atomic_file.hpp"
#include "util/io_retry.hpp"
#include "util/subprocess.hpp"

namespace syseco::serve {

// --- Manifest -------------------------------------------------------------

namespace {

constexpr std::size_t kMaxManifestCases = 4096;

Status badManifest(const std::string& why) {
  return Status::invalidInput("batch manifest: " + why);
}

bool memberString(const JsonValue& v, const char* key, std::string* out) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || m->kind != JsonValue::Kind::String) return false;
  *out = m->str;
  return true;
}

}  // namespace

Result<std::vector<ManifestCase>> parseBatchManifest(std::string_view text) {
  Result<JsonValue> parsed = parseJson(text);
  if (!parsed.isOk())
    return badManifest("not valid JSON: " + parsed.status().message());
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object)
    return badManifest("top level is not an object");
  const JsonValue* cases = v.find("cases");
  if (cases == nullptr || cases->kind != JsonValue::Kind::Array)
    return badManifest("missing \"cases\" array");
  if (cases->items.empty()) return badManifest("\"cases\" is empty");
  if (cases->items.size() > kMaxManifestCases)
    return badManifest("more than " + std::to_string(kMaxManifestCases) +
                       " cases");

  std::vector<ManifestCase> out;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < cases->items.size(); ++i) {
    const JsonValue& e = cases->items[i];
    const std::string at = "case #" + std::to_string(i + 1);
    if (e.kind != JsonValue::Kind::Object)
      return badManifest(at + " is not an object");
    ManifestCase c;
    if (!memberString(e, "name", &c.name) || !validFleetCaseName(c.name))
      return badManifest(
          at + " needs a portable \"name\" (1..64 of [A-Za-z0-9._-], not "
               "starting with '.')");
    if (!seen.insert(c.name).second)
      return badManifest("duplicate case name '" + c.name + "'");
    if (!memberString(e, "impl", &c.implPath) || c.implPath.empty())
      return badManifest(at + " needs an \"impl\" path");
    if (!memberString(e, "spec", &c.specPath) || c.specPath.empty())
      return badManifest(at + " needs a \"spec\" path");
    if (const JsonValue* seed = e.find("seed"); seed != nullptr) {
      if (!seed->isInteger || seed->integer < 0)
        return badManifest(at + ": \"seed\" must be a non-negative integer");
      c.seed = static_cast<std::uint64_t>(seed->integer);
      c.hasSeed = true;
    }
    if (const JsonValue* jobs = e.find("jobs"); jobs != nullptr) {
      if (!jobs->isInteger || jobs->integer < 1 || jobs->integer > kMaxCaseJobs)
        return badManifest(at + ": \"jobs\" must be in 1.." +
                           std::to_string(kMaxCaseJobs));
      c.jobs = jobs->integer;
      c.hasJobs = true;
    }
    out.push_back(std::move(c));
  }
  return out;
}

// --- runBatch -------------------------------------------------------------

namespace {

constexpr int kBatchTickMs = 50;

Result<std::string> slurpFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    return Status::invalidInput("cannot open '" + path + "' for reading");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

Status writeBatchReport(JobQueue& queue, bool degraded, bool interrupted) {
  std::ostringstream os;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  os << "{\"cases\":[";
  bool first = true;
  for (const Job* c : queue.all()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << jsonEscape(c->id) << "\",\"state\":\""
       << queueStateName(c->state) << "\",\"exit_code\":" << c->exitCode
       << ",\"attempt\":" << c->attempt << ",\"worker\":\""
       << jsonEscape(c->worker) << "\",\"cause\":\"" << jsonEscape(c->cause)
       << "\",\"cache\":{\"hits\":" << c->cacheHits
       << ",\"misses\":" << c->cacheMisses
       << ",\"evictions\":" << c->cacheEvictions << "}}";
    hits += c->cacheHits;
    misses += c->cacheMisses;
    evictions += c->cacheEvictions;
  }
  os << "],\"degraded_to_local\":" << (degraded ? "true" : "false")
     << ",\"interrupted\":" << (interrupted ? "true" : "false")
     << ",\"cache_totals\":{\"hits\":" << hits << ",\"misses\":" << misses
     << ",\"evictions\":" << evictions << "}}\n";
  return writeFileAtomic(queue.stateDir() + "/batch_report.json", os.str());
}

bool hasOpenJobs(JobQueue& queue) {
  for (const Job* c : queue.all())
    if (c->state == QueueState::kQueued || c->state == QueueState::kRunning)
      return true;
  return false;
}

}  // namespace

Result<BatchOutcome> runBatch(const BatchOptions& opt) {
  if (opt.manifestPath.empty())
    return Status::invalidInput("--batch needs a manifest path");
  if (opt.stateDir.empty())
    return Status::invalidInput("--batch needs a state directory "
                                "(--batch-state DIR or --resume DIR)");
  if (opt.selfExe.empty())
    return Status::invalidInput("batch driver needs its worker binary path");
  ioretry::ignoreSigpipeOnce();

  Result<std::string> manifestText = slurpFile(opt.manifestPath);
  if (!manifestText.isOk()) return manifestText.status();
  Result<std::vector<ManifestCase>> manifest =
      parseBatchManifest(manifestText.value());
  if (!manifest.isOk()) return manifest.status();

  Result<JobQueue> opened = JobQueue::open(opt.stateDir);
  if (!opened.isOk()) return opened.status();
  JobQueue queue = opened.take();
  if (!opt.expectResume && !queue.all().empty())
    return Status::invalidInput(
        "batch state directory '" + opt.stateDir +
        "' already holds a sweep; pass `--resume " + opt.stateDir +
        "` to continue it, or point --batch-state at a fresh directory");
  for (const ManifestCase& m : manifest.value()) {
    Result<Job*> reg = queue.registerCase(
        m.name, m.implPath, m.specPath, m.hasSeed ? m.seed : opt.defaultSeed,
        m.hasJobs ? m.jobs : opt.defaultJobs);
    if (!reg.isOk()) return reg.status();
  }

  Scheduler scheduler(opt, queue, "batch");
  bool interrupted = false;
  while (true) {
    if (opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    // Fail closed on a poisoned WAL: once a storage fault latches the
    // queue's journal, no transition can be made durable - continuing
    // would spin on un-journalable dispatches and lose progress records.
    // Drain and return the structured cause; `--batch ... --resume` heals
    // from the last COMMIT-consistent prefix.
    if (queue.walPoisoned()) {
      scheduler.shutdown();
      return Status::internal(
          "batch queue WAL unusable (" + queue.walPoisonCause() +
          "); sweep stopping - rerun with `--batch " + opt.manifestPath +
          " --resume " + opt.stateDir + "` to recover");
    }
    scheduler.tick();
    if (!hasOpenJobs(queue)) break;
    subprocess::pollReadable(scheduler.pollFds(), kBatchTickMs);
  }

  if (interrupted) {
    // Clean drain: in-flight work stays "running" in the WAL so the next
    // life recovers it as queued-with-resume.
    queue.note("interrupted: draining to shutdown");
    scheduler.shutdown();
  }

  if (Status s =
          writeBatchReport(queue, scheduler.degradedToLocal(), interrupted);
      !s.isOk())
    return s;

  BatchOutcome outcome;
  outcome.degradedToLocal = scheduler.degradedToLocal();
  outcome.interrupted = interrupted;
  for (const Job* c : queue.all()) {
    if (c->state == QueueState::kDone) {
      ++outcome.done;
      outcome.worstCaseExit = std::max(outcome.worstCaseExit, c->exitCode);
    } else if (c->state == QueueState::kFailed) {
      ++outcome.failed;
    }
  }
  return outcome;
}

}  // namespace syseco::serve
