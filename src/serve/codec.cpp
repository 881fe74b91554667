#include "serve/codec.hpp"

#include <sstream>

#include "io/journal_io.hpp"
#include "util/journal.hpp"

namespace syseco::serve {

namespace {

Status bad(const std::string& what) { return Status::invalidInput(what); }

/// Object member accessors with the journal parsers' tolerance policy:
/// a *missing* key yields the default (forward compatibility), a key of
/// the *wrong kind* is a hard reject (a confused peer, not a newer one).
Result<std::string> getString(const JsonValue& obj, const std::string& key,
                              const std::string& fallback = "") {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::String)
    return bad("serve payload key '" + key + "' is not a string");
  return v->str;
}

Result<std::int64_t> getI64(const JsonValue& obj, const std::string& key,
                            std::int64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::Number || !v->isInteger)
    return bad("serve payload key '" + key + "' is not an integer");
  return v->integer;
}

Result<bool> getBool(const JsonValue& obj, const std::string& key,
                     bool fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::Bool)
    return bad("serve payload key '" + key + "' is not a bool");
  return v->boolean;
}

/// u64 values ride as decimal strings (the journal_io idiom for seeds:
/// JSON numbers are doubles and would silently round 2^53+).
Result<std::uint64_t> getU64String(const JsonValue& obj,
                                   const std::string& key,
                                   std::uint64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::String || v->str.empty())
    return bad("serve payload key '" + key + "' is not a u64 string");
  std::uint64_t out = 0;
  for (char c : v->str) {
    if (c < '0' || c > '9')
      return bad("serve payload key '" + key + "' is not a u64 string");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10)
      return bad("serve payload key '" + key + "' overflows u64");
    out = out * 10 + digit;
  }
  return out;
}

Result<JsonValue> parseTyped(std::string_view payload, const char* type) {
  Result<JsonValue> parsed = parseJson(payload);
  if (!parsed.isOk()) return parsed.status();
  JsonValue doc = parsed.take();
  if (doc.kind != JsonValue::Kind::Object)
    return bad("serve payload is not a JSON object");
  const JsonValue* t = doc.find("type");
  if (t == nullptr || t->kind != JsonValue::Kind::String || t->str != type)
    return bad(std::string("serve payload is not a '") + type + "' record");
  return doc;
}

void appendKv(std::ostream& os, const char* key, const std::string& value,
              bool* first) {
  os << (*first ? "" : ",") << "\"" << key << "\":\"" << jsonEscape(value)
     << "\"";
  *first = false;
}

void appendKv(std::ostream& os, const char* key, std::int64_t value,
              bool* first) {
  os << (*first ? "" : ",") << "\"" << key << "\":" << value;
  *first = false;
}

void appendKv(std::ostream& os, const char* key, bool value, bool* first) {
  os << (*first ? "" : ",") << "\"" << key
     << "\":" << (value ? "true" : "false");
  *first = false;
}

}  // namespace

std::string encodeSubmit(const SubmitRequest& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("submit"), &first);
  appendKv(os, "tenant", r.tenant, &first);
  appendKv(os, "format", r.format, &first);
  appendKv(os, "impl", r.implText, &first);
  appendKv(os, "spec", r.specText, &first);
  appendKv(os, "seed", std::to_string(r.seed), &first);
  appendKv(os, "jobs", r.jobs, &first);
  appendKv(os, "isolate", r.isolate, &first);
  appendKv(os, "detach", r.detach, &first);
  appendKv(os, "fault_plan", r.faultPlan, &first);
  os << "}";
  return os.str();
}

Result<SubmitRequest> decodeSubmit(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "submit");
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& doc = parsed.value();
  SubmitRequest r;
  Result<std::string> tenant = getString(doc, "tenant", "default");
  if (!tenant.isOk()) return tenant.status();
  r.tenant = tenant.take();
  if (r.tenant.empty()) return bad("serve submit has an empty tenant");
  Result<std::string> format = getString(doc, "format", "blif");
  if (!format.isOk()) return format.status();
  r.format = format.take();
  if (r.format != "blif" && r.format != "v" && r.format != "netlist")
    return bad("serve submit format must be blif|v|netlist, got '" +
               r.format + "'");
  Result<std::string> impl = getString(doc, "impl");
  if (!impl.isOk()) return impl.status();
  r.implText = impl.take();
  Result<std::string> spec = getString(doc, "spec");
  if (!spec.isOk()) return spec.status();
  r.specText = spec.take();
  if (r.implText.empty() || r.specText.empty())
    return bad("serve submit is missing a netlist payload");
  Result<std::uint64_t> seed = getU64String(doc, "seed", 1);
  if (!seed.isOk()) return seed.status();
  r.seed = seed.take();
  Result<std::int64_t> jobs = getI64(doc, "jobs", 1);
  if (!jobs.isOk()) return jobs.status();
  r.jobs = jobs.take();
  if (r.jobs < 1 || r.jobs > 256)
    return bad("serve submit jobs must be in 1..256");
  Result<bool> isolate = getBool(doc, "isolate", false);
  if (!isolate.isOk()) return isolate.status();
  r.isolate = isolate.take();
  Result<bool> detach = getBool(doc, "detach", false);
  if (!detach.isOk()) return detach.status();
  r.detach = detach.take();
  Result<std::string> fault = getString(doc, "fault_plan");
  if (!fault.isOk()) return fault.status();
  r.faultPlan = fault.take();
  return r;
}

std::string encodeAccepted(const Accepted& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("accepted"), &first);
  appendKv(os, "job", r.job, &first);
  os << "}";
  return os.str();
}

Result<Accepted> decodeAccepted(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "accepted");
  if (!parsed.isOk()) return parsed.status();
  Accepted r;
  Result<std::string> job = getString(parsed.value(), "job");
  if (!job.isOk()) return job.status();
  r.job = job.take();
  if (r.job.empty()) return bad("serve accepted has an empty job id");
  return r;
}

std::string encodeRejected(const Rejected& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("rejected"), &first);
  appendKv(os, "reason", r.reason, &first);
  appendKv(os, "detail", r.detail, &first);
  os << "}";
  return os.str();
}

Result<Rejected> decodeRejected(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "rejected");
  if (!parsed.isOk()) return parsed.status();
  Rejected r;
  Result<std::string> reason = getString(parsed.value(), "reason");
  if (!reason.isOk()) return reason.status();
  r.reason = reason.take();
  if (r.reason.empty()) return bad("serve rejected has an empty reason");
  Result<std::string> detail = getString(parsed.value(), "detail");
  if (!detail.isOk()) return detail.status();
  r.detail = detail.take();
  return r;
}

std::string encodeJobRef(const JobRef& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("job_ref"), &first);
  appendKv(os, "job", r.job, &first);
  os << "}";
  return os.str();
}

Result<JobRef> decodeJobRef(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "job_ref");
  if (!parsed.isOk()) return parsed.status();
  JobRef r;
  Result<std::string> job = getString(parsed.value(), "job");
  if (!job.isOk()) return job.status();
  r.job = job.take();
  if (r.job.empty()) return bad("serve job ref has an empty job id");
  return r;
}

std::string encodeJobState(const JobState& r) {
  std::ostringstream os;
  bool first = true;
  os << "{";
  appendKv(os, "type", std::string("job_state"), &first);
  appendKv(os, "job", r.job, &first);
  appendKv(os, "state", r.state, &first);
  appendKv(os, "attempt", r.attempt, &first);
  appendKv(os, "exit_code", r.exitCode, &first);
  appendKv(os, "cause", r.cause, &first);
  appendKv(os, "detail", r.detail, &first);
  appendKv(os, "report", r.reportText, &first);
  appendKv(os, "out", r.outText, &first);
  os << "}";
  return os.str();
}

Result<JobState> decodeJobState(std::string_view payload) {
  Result<JsonValue> parsed = parseTyped(payload, "job_state");
  if (!parsed.isOk()) return parsed.status();
  const JsonValue& doc = parsed.value();
  JobState r;
  Result<std::string> job = getString(doc, "job");
  if (!job.isOk()) return job.status();
  r.job = job.take();
  Result<std::string> state = getString(doc, "state");
  if (!state.isOk()) return state.status();
  r.state = state.take();
  if (r.state.empty()) return bad("serve job state has an empty state");
  Result<std::int64_t> attempt = getI64(doc, "attempt", 0);
  if (!attempt.isOk()) return attempt.status();
  r.attempt = attempt.take();
  Result<std::int64_t> exitCode = getI64(doc, "exit_code", 0);
  if (!exitCode.isOk()) return exitCode.status();
  r.exitCode = exitCode.take();
  Result<std::string> cause = getString(doc, "cause");
  if (!cause.isOk()) return cause.status();
  r.cause = cause.take();
  Result<std::string> detail = getString(doc, "detail");
  if (!detail.isOk()) return detail.status();
  r.detail = detail.take();
  Result<std::string> report = getString(doc, "report");
  if (!report.isOk()) return report.status();
  r.reportText = report.take();
  Result<std::string> out = getString(doc, "out");
  if (!out.isOk()) return out.status();
  r.outText = out.take();
  return r;
}

}  // namespace syseco::serve
