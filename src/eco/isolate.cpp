#include "eco/isolate.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "io/journal_io.hpp"
#include "util/ipc.hpp"
#include "util/journal.hpp"

namespace syseco {

namespace {

// Sanity ceilings for unbounded-looking counters arriving over IPC. Far
// above anything a real worker produces; their only job is to keep a
// corrupted frame from smuggling absurd values into run accounting.
constexpr std::int64_t kMaxSmallCount = 1000000;

/// Field readers, mirroring journal_io's record extraction: false means
/// "absent or wrong type/range" and the caller rejects the whole message.
bool getU64(const JsonValue& obj, const std::string& key, std::uint64_t* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number || !v->isInteger ||
      v->integer < 0)
    return false;
  *out = static_cast<std::uint64_t>(v->integer);
  return true;
}

bool getU32(const JsonValue& obj, const std::string& key, std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (!getU64(obj, key, &wide) || wide > 0xFFFFFFFFull) return false;
  *out = static_cast<std::uint32_t>(wide);
  return true;
}

bool getI64(const JsonValue& obj, const std::string& key, std::int64_t* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number || !v->isInteger) return false;
  *out = v->integer;
  return true;
}

bool getDouble(const JsonValue& obj, const std::string& key, double* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number ||
      !std::isfinite(v->number))
    return false;
  *out = v->number;
  return true;
}

bool getString(const JsonValue& obj, const std::string& key,
               std::string* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::String) return false;
  *out = v->str;
  return true;
}

bool getBool(const JsonValue& obj, const std::string& key, bool* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Bool) return false;
  *out = v->boolean;
  return true;
}

/// Array element as an exact u32 (kNullId allowed when `allowNull`).
bool elemU32(const JsonValue& e, std::uint32_t* out) {
  if (e.kind != JsonValue::Kind::Number || !e.isInteger || e.integer < 0 ||
      e.integer > 0xFFFFFFFFll)
    return false;
  *out = static_cast<std::uint32_t>(e.integer);
  return true;
}

std::optional<OutputRectStatus> rectStatusFromName(std::string_view name) {
  for (OutputRectStatus s :
       {OutputRectStatus::kExact, OutputRectStatus::kDegraded,
        OutputRectStatus::kFallback}) {
    if (name == outputRectStatusName(s)) return s;
  }
  return std::nullopt;
}

std::optional<StatusCode> statusCodeFromName(std::string_view name) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kBudgetExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kInvalidInput,
        StatusCode::kInternal}) {
    if (name == statusCodeName(c)) return c;
  }
  return std::nullopt;
}

void serializeReportInto(std::ostringstream& os, const OutputReport& r) {
  os << "{\"output\":" << r.output << ",\"name\":\"" << jsonEscape(r.name)
     << "\",\"status\":\"" << outputRectStatusName(r.status)
     << "\",\"limit\":\"" << statusCodeName(r.limit)
     << "\",\"conflicts_used\":" << r.conflictsUsed
     << ",\"bdd_nodes_used\":" << r.bddNodesUsed << ",\"seconds\":"
     << r.seconds << ",\"degrade_steps\":" << r.degradeSteps
     << ",\"attempts\":" << r.workerFailedAttempts << ",\"exit_cause\":\""
     << workerExitCauseName(r.workerExitCause) << "\"}";
}

bool parseReport(const JsonValue& v, const Netlist& base, OutputReport* out) {
  if (v.kind != JsonValue::Kind::Object) return false;
  std::string status, limit, exitCause;
  std::int64_t degradeSteps = 0, attempts = 0;
  if (!(getU32(v, "output", &out->output) && getString(v, "name", &out->name) &&
        getString(v, "status", &status) && getString(v, "limit", &limit) &&
        getI64(v, "conflicts_used", &out->conflictsUsed) &&
        getI64(v, "bdd_nodes_used", &out->bddNodesUsed) &&
        getDouble(v, "seconds", &out->seconds) &&
        getI64(v, "degrade_steps", &degradeSteps) &&
        getI64(v, "attempts", &attempts) &&
        getString(v, "exit_cause", &exitCause)))
    return false;
  const auto st = rectStatusFromName(status);
  const auto lim = statusCodeFromName(limit);
  const auto cause = workerExitCauseFromName(exitCause);
  if (!st || !lim || !cause) return false;
  if (out->output >= base.numOutputs()) return false;
  if (out->name != base.outputName(out->output)) return false;
  if (out->conflictsUsed < 0 || out->bddNodesUsed < 0) return false;
  if (out->seconds < 0.0) return false;
  if (degradeSteps < 0 || degradeSteps > kMaxSmallCount) return false;
  if (attempts < 0 || attempts > kMaxSmallCount) return false;
  out->status = *st;
  out->limit = *lim;
  out->degradeSteps = static_cast<int>(degradeSteps);
  out->workerFailedAttempts = static_cast<int>(attempts);
  out->workerExitCause = *cause;
  return true;
}

Status bad(const std::string& what) {
  return Status::invalidInput("worker patch: " + what);
}

}  // namespace

std::string encodeTaskRequest(const IsolateTaskRequest& req) {
  std::ostringstream os;
  os << "{\"output\":" << req.output << ",\"attempt\":" << req.attempt << "}";
  return os.str();
}

Result<IsolateTaskRequest> decodeTaskRequest(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  IsolateTaskRequest req;
  if (!getU32(v, "output", &req.output) ||
      !getI64(v, "attempt", &req.attempt) || req.attempt < 1 ||
      req.attempt > kMaxSmallCount)
    return Status::invalidInput("task request: malformed fields");
  return req;
}

std::string encodeWorkerPatch(const WorkerPatch& patch) {
  std::ostringstream os;
  // max_digits10: phase seconds must survive the round trip bit-exactly so
  // isolated-run diagnostics match the in-process speculative mode.
  os << std::setprecision(17);
  os << "{\"produced\":" << (patch.produced ? "true" : "false")
     << ",\"base_gates\":" << patch.baseGates
     << ",\"base_nets\":" << patch.baseNets << ",\"gates\":[";
  for (std::size_t i = 0; i < patch.gates.size(); ++i) {
    const WorkerPatch::NewGate& g = patch.gates[i];
    os << (i ? "," : "") << "[" << static_cast<unsigned>(g.type) << ","
       << g.out;
    for (NetId f : g.fanins) os << "," << f;
    os << "]";
  }
  os << "],\"rewires\":[";
  for (std::size_t i = 0; i < patch.rewires.size(); ++i) {
    const PatchTracker::RewireRecord& r = patch.rewires[i];
    os << (i ? "," : "") << "[" << r.sink.gate << "," << r.sink.port << ","
       << r.oldNet << "," << r.newNet << "]";
  }
  os << "],\"counters\":[" << patch.frag.outputsRectified << ","
     << patch.frag.outputsViaRewire << "," << patch.frag.outputsViaFallback
     << "," << patch.frag.candidatesValidated << ","
     << patch.frag.candidatesRefuted << ","
     << patch.frag.candidatesScreenRejected << ","
     << patch.frag.refinementRounds << "],\"seconds\":["
     << patch.frag.secondsSampling << "," << patch.frag.secondsSymbolic << ","
     << patch.frag.secondsScreening << "," << patch.frag.secondsValidation
     << "," << patch.frag.secondsFallback << "]";
  if (patch.produced && !patch.frag.outputs.empty()) {
    os << ",\"report\":";
    serializeReportInto(os, patch.frag.outputs.back());
  }
  os << "}";
  return os.str();
}

Result<WorkerPatch> decodeWorkerPatch(std::string_view payload,
                                      const Netlist& base) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return bad("not an object");

  WorkerPatch patch;
  if (!getBool(v, "produced", &patch.produced) ||
      !getU64(v, "base_gates", &patch.baseGates) ||
      !getU64(v, "base_nets", &patch.baseNets))
    return bad("malformed envelope");
  if (patch.baseGates != base.numGatesTotal() ||
      patch.baseNets != base.numNetsTotal())
    return bad("base snapshot counts disagree with the supervisor's");

  const JsonValue* gates = v.find("gates");
  if (!gates || gates->kind != JsonValue::Kind::Array)
    return bad("missing gates array");
  if (gates->items.size() > static_cast<std::size_t>(kMaxSmallCount))
    return bad("absurd gate count");
  patch.gates.reserve(gates->items.size());
  for (std::size_t i = 0; i < gates->items.size(); ++i) {
    const JsonValue& item = gates->items[i];
    if (item.kind != JsonValue::Kind::Array || item.items.size() < 2)
      return bad("malformed gate entry");
    std::uint32_t typeRaw = 0, out = 0;
    if (!elemU32(item.items[0], &typeRaw) || !elemU32(item.items[1], &out))
      return bad("malformed gate entry");
    if (typeRaw > static_cast<std::uint32_t>(GateType::Mux))
      return bad("unknown gate type");
    WorkerPatch::NewGate g;
    g.type = static_cast<GateType>(typeRaw);
    // addGate creates exactly one net per gate, so appended gate i must
    // drive net baseNets+i - the invariant the commit-time remap relies on.
    if (out != patch.baseNets + i) return bad("gate output id out of order");
    g.out = out;
    g.fanins.reserve(item.items.size() - 2);
    for (std::size_t f = 2; f < item.items.size(); ++f) {
      std::uint32_t fanin = 0;
      if (!elemU32(item.items[f], &fanin)) return bad("malformed gate fanin");
      // Strictly older nets only: keeps the replayed patch acyclic and
      // every remapped fanin id in range.
      if (fanin >= out) return bad("gate fanin from the future");
      g.fanins.push_back(fanin);
    }
    const std::uint8_t arity = gateArity(g.type);
    const bool arityOk = arity == 0xFF ? !g.fanins.empty()
                                       : g.fanins.size() == arity;
    if (!arityOk) return bad("gate fanin arity mismatch");
    patch.gates.push_back(std::move(g));
  }
  const std::uint64_t totalGates = patch.baseGates + patch.gates.size();
  const std::uint64_t totalNets = patch.baseNets + patch.gates.size();

  const JsonValue* rewires = v.find("rewires");
  if (!rewires || rewires->kind != JsonValue::Kind::Array)
    return bad("missing rewires array");
  if (rewires->items.size() > static_cast<std::size_t>(kMaxSmallCount))
    return bad("absurd rewire count");
  patch.rewires.reserve(rewires->items.size());
  for (const JsonValue& item : rewires->items) {
    if (item.kind != JsonValue::Kind::Array || item.items.size() != 4)
      return bad("malformed rewire entry");
    std::uint32_t f[4];
    for (int i = 0; i < 4; ++i)
      if (!elemU32(item.items[static_cast<std::size_t>(i)], &f[i]))
        return bad("malformed rewire entry");
    PatchTracker::RewireRecord r{Sink{f[0], f[1]}, f[2], f[3]};
    if (r.oldNet >= totalNets || r.newNet >= totalNets)
      return bad("rewire net id out of range");
    if (r.sink.isOutput()) {
      if (r.sink.port >= base.numOutputs())
        return bad("rewire output index out of range");
    } else {
      if (r.sink.gate >= totalGates) return bad("rewire gate id out of range");
      const std::size_t faninCount =
          r.sink.gate < patch.baseGates
              ? base.gate(r.sink.gate).fanins.size()
              : patch.gates[r.sink.gate - patch.baseGates].fanins.size();
      if (r.sink.port >= faninCount) return bad("rewire port out of range");
    }
    patch.rewires.push_back(r);
  }

  const JsonValue* counters = v.find("counters");
  if (!counters || counters->kind != JsonValue::Kind::Array ||
      counters->items.size() != 7)
    return bad("malformed counters");
  std::uint64_t c[7];
  for (int i = 0; i < 7; ++i) {
    const JsonValue& e = counters->items[static_cast<std::size_t>(i)];
    if (e.kind != JsonValue::Kind::Number || !e.isInteger || e.integer < 0)
      return bad("malformed counters");
    c[i] = static_cast<std::uint64_t>(e.integer);
  }
  patch.frag.outputsRectified = c[0];
  patch.frag.outputsViaRewire = c[1];
  patch.frag.outputsViaFallback = c[2];
  patch.frag.candidatesValidated = c[3];
  patch.frag.candidatesRefuted = c[4];
  patch.frag.candidatesScreenRejected = c[5];
  patch.frag.refinementRounds = c[6];

  const JsonValue* seconds = v.find("seconds");
  if (!seconds || seconds->kind != JsonValue::Kind::Array ||
      seconds->items.size() != 5)
    return bad("malformed seconds");
  double s[5];
  for (int i = 0; i < 5; ++i) {
    const JsonValue& e = seconds->items[static_cast<std::size_t>(i)];
    if (e.kind != JsonValue::Kind::Number || !std::isfinite(e.number) ||
        e.number < 0.0)
      return bad("malformed seconds");
    s[i] = e.number;
  }
  patch.frag.secondsSampling = s[0];
  patch.frag.secondsSymbolic = s[1];
  patch.frag.secondsScreening = s[2];
  patch.frag.secondsValidation = s[3];
  patch.frag.secondsFallback = s[4];

  if (patch.produced) {
    const JsonValue* report = v.find("report");
    OutputReport r;
    if (!report || !parseReport(*report, base, &r))
      return bad("malformed report");
    patch.frag.outputs.push_back(std::move(r));
  }
  return patch;
}

// --- Agent case payloads ---------------------------------------------

namespace {

Status badFleet(const std::string& what) {
  return Status::invalidInput("fleet payload: " + what);
}

/// uint64 carried as a decimal string: the journal idiom for values (seed,
/// epoch) that may not fit a JSON int64.
void putU64String(std::ostringstream& os, std::uint64_t v) {
  os << '"' << v << '"';
}

bool getU64String(const JsonValue& obj, const std::string& key,
                  std::uint64_t* out) {
  std::string text;
  if (!getString(obj, key, &text) || text.empty() || text.size() > 20)
    return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (0xFFFFFFFFFFFFFFFFull - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

std::string encodeFleetCase(const Netlist& base, const Netlist& spec,
                            const SysecoOptions& options) {
  std::ostringstream os;
  os << "{\"impl\":\"" << jsonEscape(base.dumpRawString()) << "\",\"spec\":\""
     << jsonEscape(spec.dumpRawString()) << "\",\"options\":{"
     << "\"samples\":" << options.numSamples
     << ",\"points\":" << options.maxPoints
     << ",\"pins\":" << options.maxCandidatePins
     << ",\"nets\":" << options.maxRewireNets
     << ",\"sets\":" << options.maxPointSets
     << ",\"choices\":" << options.maxChoices
     << ",\"refine\":" << options.maxRefineIters
     << ",\"vbudget\":" << options.validationBudget
     << ",\"sbudget\":" << options.samplingBudget
     << ",\"bddlimit\":" << options.bddNodeLimit
     << ",\"errsample\":" << (options.useErrorDomainSampling ? "true" : "false")
     << ",\"utility\":" << (options.useUtilityHeuristic ? "true" : "false")
     << ",\"trivial\":" << (options.includeTrivialCandidate ? "true" : "false")
     << ",\"sweep\":" << (options.enableSweeping ? "true" : "false")
     << ",\"synth\":" << (options.synthesizeFunctions ? "true" : "false")
     << ",\"level\":" << (options.levelDriven ? "true" : "false")
     << ",\"seed\":";
  putU64String(os, options.seed);
  os << "}}";
  return os.str();
}

Result<FleetCase> decodeFleetCase(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");

  std::string implDump, specDump;
  if (!getString(v, "impl", &implDump) || !getString(v, "spec", &specDump))
    return badFleet("missing netlist snapshots");
  Result<Netlist> base = Netlist::restoreRawString(implDump);
  if (!base.isOk())
    return badFleet("impl snapshot: " + base.status().message());
  Result<Netlist> spec = Netlist::restoreRawString(specDump);
  if (!spec.isOk())
    return badFleet("spec snapshot: " + spec.status().message());

  const JsonValue* opts = v.find("options");
  if (!opts || opts->kind != JsonValue::Kind::Object)
    return badFleet("missing options");
  FleetCase out;
  SysecoOptions& o = out.options;
  std::uint64_t samples = 0, pins = 0, nets = 0, sets = 0, choices = 0,
                bddLimit = 0;
  std::int64_t points = 0, refine = 0;
  if (!(getU64(*opts, "samples", &samples) &&
        getI64(*opts, "points", &points) && getU64(*opts, "pins", &pins) &&
        getU64(*opts, "nets", &nets) && getU64(*opts, "sets", &sets) &&
        getU64(*opts, "choices", &choices) &&
        getI64(*opts, "refine", &refine) &&
        getI64(*opts, "vbudget", &o.validationBudget) &&
        getI64(*opts, "sbudget", &o.samplingBudget) &&
        getU64(*opts, "bddlimit", &bddLimit) &&
        getBool(*opts, "errsample", &o.useErrorDomainSampling) &&
        getBool(*opts, "utility", &o.useUtilityHeuristic) &&
        getBool(*opts, "trivial", &o.includeTrivialCandidate) &&
        getBool(*opts, "sweep", &o.enableSweeping) &&
        getBool(*opts, "synth", &o.synthesizeFunctions) &&
        getBool(*opts, "level", &o.levelDriven) &&
        getU64String(*opts, "seed", &o.seed)))
    return badFleet("malformed options");
  if (points < 1 || points > kMaxSmallCount || refine < 0 ||
      refine > kMaxSmallCount)
    return badFleet("malformed options");
  o.numSamples = static_cast<std::size_t>(samples);
  o.maxPoints = static_cast<int>(points);
  o.maxCandidatePins = static_cast<std::size_t>(pins);
  o.maxRewireNets = static_cast<std::size_t>(nets);
  o.maxPointSets = static_cast<std::size_t>(sets);
  o.maxChoices = static_cast<std::size_t>(choices);
  o.maxRefineIters = static_cast<int>(refine);
  o.bddNodeLimit = static_cast<std::size_t>(bddLimit);
  if (const Status s = validateSysecoOptions(o); !s.isOk())
    return badFleet("options rejected: " + s.message());

  out.base = base.take();
  out.spec = spec.take();
  return out;
}

std::string encodeFleetNeedCase(std::uint32_t caseCrc) {
  std::ostringstream os;
  os << "{\"case_crc\":" << caseCrc << "}";
  return os.str();
}

Result<std::uint32_t> decodeFleetNeedCase(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  std::uint32_t crc = 0;
  if (parsed.value().kind != JsonValue::Kind::Object ||
      !getU32(parsed.value(), "case_crc", &crc))
    return badFleet("malformed need-case");
  return crc;
}

std::string encodeFleetHeartbeat(std::uint64_t epoch) {
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, epoch);
  os << "}";
  return os.str();
}

Result<std::uint64_t> decodeFleetHeartbeat(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  std::uint64_t epoch = 0;
  if (parsed.value().kind != JsonValue::Kind::Object ||
      !getU64String(parsed.value(), "epoch", &epoch))
    return badFleet("malformed heartbeat");
  return epoch;
}

std::string encodeFleetFailure(const FleetFailure& failure) {
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, failure.epoch);
  os << ",\"cause\":\"" << jsonEscape(failure.cause) << "\",\"detail\":\""
     << jsonEscape(failure.detail) << "\"}";
  return os.str();
}

Result<FleetFailure> decodeFleetFailure(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  FleetFailure f;
  if (v.kind != JsonValue::Kind::Object ||
      !getU64String(v, "epoch", &f.epoch) ||
      !getString(v, "cause", &f.cause) ||
      !getString(v, "detail", &f.detail) ||
      !workerExitCauseFromName(f.cause))
    return badFleet("malformed failure");
  if (f.detail.size() > 4096) f.detail.resize(4096);
  return f;
}

// --- Whole-case batch fan-out payloads ------------------------------------

namespace {

// The report and verdicts are bounded text documents; the netlist snapshot
// dominates the frame and is bounded by the frame cap itself. Each bound is
// checked at decode so a corrupt length can't drive supervisor allocation.
constexpr std::size_t kMaxCaseTextBytes = 4u << 20;  // report / verdicts

}  // namespace

bool validFleetCaseName(std::string_view name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string encodeFleetCaseTask(const FleetCaseTask& task) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"name\":\"" << jsonEscape(task.name)
     << "\",\"case_crc\":" << task.caseCrc << ",\"epoch\":";
  putU64String(os, task.epoch);
  os << ",\"lease_seconds\":" << task.leaseSeconds << ",\"jobs\":" << task.jobs
     << ",\"attempt\":" << task.attempt << "}";
  return os.str();
}

Result<FleetCaseTask> decodeFleetCaseTask(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");
  FleetCaseTask task;
  if (!getString(v, "name", &task.name) || !validFleetCaseName(task.name) ||
      !getU32(v, "case_crc", &task.caseCrc) ||
      !getU64String(v, "epoch", &task.epoch) ||
      !getDouble(v, "lease_seconds", &task.leaseSeconds) ||
      task.leaseSeconds <= 0.0 || !getU32(v, "jobs", &task.jobs) ||
      task.jobs < 1 || task.jobs > 256 ||
      !getI64(v, "attempt", &task.attempt) || task.attempt < 1 ||
      task.attempt > kMaxSmallCount)
    return badFleet("malformed case task");
  return task;
}

std::string encodeFleetCaseResult(const FleetCaseResult& result) {
  std::ostringstream os;
  os << "{\"epoch\":";
  putU64String(os, result.epoch);
  os << ",\"exit_code\":" << result.exitCode << ",\"report\":\""
     << jsonEscape(result.report) << "\",\"verdicts\":\""
     << jsonEscape(result.verdicts) << "\",\"netlist\":\""
     << jsonEscape(result.netlist) << "\",\"cache_hits\":" << result.cacheHits
     << ",\"cache_misses\":" << result.cacheMisses
     << ",\"cache_evictions\":" << result.cacheEvictions << "}";
  return os.str();
}

Result<FleetCaseResult> decodeFleetCaseResult(std::string_view payload) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (v.kind != JsonValue::Kind::Object) return badFleet("not an object");
  FleetCaseResult r;
  std::int64_t exitCode = 0;
  if (!getU64String(v, "epoch", &r.epoch) ||
      !getI64(v, "exit_code", &exitCode) || exitCode < 0 || exitCode > 255 ||
      !getString(v, "report", &r.report) ||
      !getString(v, "verdicts", &r.verdicts) ||
      !getString(v, "netlist", &r.netlist) ||
      !getU64(v, "cache_hits", &r.cacheHits) ||
      !getU64(v, "cache_misses", &r.cacheMisses) ||
      !getU64(v, "cache_evictions", &r.cacheEvictions))
    return badFleet("malformed case result");
  r.exitCode = static_cast<int>(exitCode);
  if (r.report.size() > kMaxCaseTextBytes ||
      r.verdicts.size() > kMaxCaseTextBytes)
    return badFleet("oversized case result text");
  // The report must at least parse as a JSON object (it is re-served to
  // clients verbatim); the verdicts record, when present, must be a single
  // journal line - one JSON object tagged "verdicts", no embedded newline -
  // because the supervisor compares it byte-for-byte with local runs.
  if (Result<JsonValue> rep = parseJson(r.report);
      !rep.isOk() || rep.value().kind != JsonValue::Kind::Object)
    return badFleet("case result report is not a JSON object");
  if (!r.verdicts.empty()) {
    if (r.verdicts.find('\n') != std::string::npos)
      return badFleet("verdicts record contains a newline");
    Result<JsonValue> ver = parseJson(r.verdicts);
    std::string type;
    if (!ver.isOk() || ver.value().kind != JsonValue::Kind::Object ||
        !getString(ver.value(), "type", &type) || type != "verdicts")
      return badFleet("malformed verdicts record");
  }
  // The netlist snapshot is validated by the caller via restoreRawString
  // (it needs the Netlist anyway); the codec only bounds it.
  if (r.netlist.size() > ipc::kMaxPayloadBytes)
    return badFleet("oversized netlist snapshot");
  return r;
}

double retryBackoffSeconds(const SysecoOptions& opt, std::uint32_t output,
                           int failedAttempts) {
  const int shift = std::min(failedAttempts - 1, 10);
  double ms = opt.isolateBackoffMs * static_cast<double>(1u << shift);
  ms = std::min(ms, 5000.0);
  std::uint64_t h =
      opt.seed ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(output) + 1));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  ms += (static_cast<double>(h % 1024) / 1024.0) * 0.5 * ms;
  return ms / 1000.0;
}

}  // namespace syseco
