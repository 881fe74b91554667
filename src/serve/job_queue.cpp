#include "serve/job_queue.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "io/journal_io.hpp"
#include "util/atomic_file.hpp"

namespace syseco::serve {

namespace {

constexpr const char* kQueueSubdir = "/queue";

Status ensureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return Status::ok();
  return Status::internal("mkdir('" + path + "') failed: " +
                          std::strerror(errno));
}

std::string formatExtension(const std::string& format) {
  if (format == "blif") return ".blif";
  if (format == "v") return ".v";
  return ".netlist";
}

/// Folds one WAL record into the job list (first submission order).
/// Unknown events are skipped (a newer driver's WAL degrades to what this
/// one understands).
void foldEvent(const JournalServeEvent& ev, std::vector<Job>& jobs,
               std::map<std::string, std::size_t>& index) {
  if (ev.event == "note" || ev.job.empty()) return;
  auto it = index.find(ev.job);
  if (ev.event == "submitted") {
    if (it != index.end()) return;  // duplicate submit: first one wins
    Job j;
    j.id = ev.job;
    j.tenant = ev.tenant;
    j.format = ev.format.empty() ? "blif" : ev.format;
    j.implPath = ev.impl;
    j.specPath = ev.spec;
    j.seed = ev.seed;
    j.jobs = ev.jobs;
    j.isolate = ev.isolate;
    j.detach = ev.detach;
    j.faultPlan = ev.faultPlan;
    j.bytes = ev.bytes;
    index[ev.job] = jobs.size();
    jobs.push_back(std::move(j));
    return;
  }
  if (it == index.end()) return;  // transition without a submit: dropped
  Job& j = jobs[it->second];
  if (ev.event == "running") {
    j.state = QueueState::kRunning;
    j.attempt = ev.attempt;
    j.worker = ev.worker;
  } else if (ev.event == "recovered") {
    j.state = QueueState::kQueued;
    j.resume = true;
    j.attempt = ev.attempt;
    j.cause = ev.cause;
    j.detail = ev.detail;
  } else if (ev.event == "done") {
    j.state = QueueState::kDone;
    j.exitCode = ev.exitCode;
    j.worker = ev.worker;
    j.cacheHits = ev.cacheHits;
    j.cacheMisses = ev.cacheMisses;
    j.cacheEvictions = ev.cacheEvictions;
    j.cause.clear();
    j.detail.clear();
  } else if (ev.event == "failed" || ev.event == "cancelled") {
    j.state = ev.event == "failed" ? QueueState::kFailed
                                   : QueueState::kCancelled;
    j.cause = ev.cause;
    j.detail = ev.detail;
  }
}

JournalServeEvent eventFor(const std::string& event, const Job& job) {
  JournalServeEvent ev;
  ev.event = event;
  ev.job = job.id;
  ev.tenant = job.tenant;
  ev.format = job.format;
  ev.impl = job.implPath;
  ev.spec = job.specPath;
  ev.seed = job.seed;
  ev.jobs = job.jobs;
  ev.detach = job.detach;
  ev.isolate = job.isolate;
  ev.bytes = job.bytes;
  ev.attempt = job.attempt;
  ev.exitCode = job.exitCode;
  ev.cause = job.cause;
  ev.detail = job.detail;
  ev.faultPlan = job.faultPlan;
  ev.worker = job.worker;
  ev.cacheHits = job.cacheHits;
  ev.cacheMisses = job.cacheMisses;
  ev.cacheEvictions = job.cacheEvictions;
  return ev;
}

std::uint64_t numericSuffix(const std::string& id) {
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    n = n * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  return n;
}

}  // namespace

std::string netlistFormatOf(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
    return "netlist";
  const std::string ext = path.substr(dot + 1);
  return ext == "blif" || ext == "v" ? ext : "netlist";
}

const char* queueStateName(QueueState s) {
  switch (s) {
    case QueueState::kQueued: return "queued";
    case QueueState::kRunning: return "running";
    case QueueState::kDone: return "done";
    case QueueState::kFailed: return "failed";
    case QueueState::kCancelled: return "cancelled";
  }
  return "unknown";
}

Result<JobQueue> JobQueue::open(const std::string& stateDir) {
  JobQueue q;
  q.stateDir_ = stateDir;
  if (Status s = ensureDir(stateDir); !s.isOk()) return s;
  if (Status s = ensureDir(stateDir + "/jobs"); !s.isOk()) return s;

  // Fold whatever WAL a previous daemon life left behind. A missing
  // journal is an empty scan; torn tails and corrupt lines were already
  // dropped (with diagnostics) by the framing layer.
  Result<JournalScan> scan = scanJournal(stateDir + kQueueSubdir);
  if (!scan.isOk()) return scan.status();
  std::vector<Job> folded;
  std::map<std::string, std::size_t> index;
  std::size_t droppedPayloads = 0;
  for (const JournalFrame& frame : scan.value().frames) {
    Result<JournalServeEvent> ev = parseServeEvent(frame.payload);
    if (!ev.isOk()) {
      ++droppedPayloads;
      continue;
    }
    foldEvent(ev.value(), folded, index);
  }
  for (const std::string& d : scan.value().diagnostics)
    q.recoveryNotes_.push_back("queue WAL: " + d);
  if (droppedPayloads > 0)
    q.recoveryNotes_.push_back("queue WAL: dropped " +
                               std::to_string(droppedPayloads) +
                               " unparseable record(s)");

  // Jobs that were mid-run when the driver died come back queued with the
  // resume flag: their engine journals hold every committed checkpoint,
  // and --resume re-certifies and continues from there (a remote run
  // leaves no local journal, and --resume over none simply runs fresh).
  for (Job& job : folded) {
    const std::string& id = job.id;
    if (job.state == QueueState::kRunning) {
      job.state = QueueState::kQueued;
      job.resume = true;
      q.recoveryNotes_.push_back("job " + id +
                                 " was mid-run at shutdown; re-queued with "
                                 "resume (attempt " +
                                 std::to_string(job.attempt) + ")");
    } else if (job.state == QueueState::kQueued && job.resume) {
      q.recoveryNotes_.push_back("job " + id +
                                 " restored as queued-with-resume");
    }
  }

  // A crash mid-writeFileAtomic legitimately strands a staging file in the
  // state tree; recovery sweeps them so they never accumulate (and so the
  // chaos harness can treat a surviving one as a leak).
  removeStaleStaging(stateDir);
  removeStaleStaging(stateDir + "/jobs");
  for (const Job& job : folded) removeStaleStaging(q.jobDir(job.id));

  // Compact: rewrite the WAL from the folded state so its length tracks
  // the job count, not driver lifetime. The rewrite is staged and
  // renamed (createCompacted), so a kill at any instant leaves either the
  // complete old WAL or the complete new one - never a truncated mix.
  std::vector<std::string> compacted;
  for (Job& job : folded) {
    compacted.push_back(serializeServeEvent(eventFor("submitted", job)));
    const char* transition = nullptr;
    switch (job.state) {
      case QueueState::kQueued:
        if (job.resume) transition = "recovered";
        break;
      case QueueState::kRunning: transition = "running"; break;
      case QueueState::kDone: transition = "done"; break;
      case QueueState::kFailed: transition = "failed"; break;
      case QueueState::kCancelled: transition = "cancelled"; break;
    }
    if (transition != nullptr)
      compacted.push_back(serializeServeEvent(eventFor(transition, job)));
    q.nextId_ = std::max(q.nextId_, numericSuffix(job.id) + 1);
    q.jobs_.push_back(std::make_unique<Job>(std::move(job)));
  }
  Result<JournalWriter> wal = JournalWriter::createCompacted(
      stateDir + kQueueSubdir, compacted, "queue.wal");
  if (!wal.isOk()) return wal.status();
  q.wal_ = wal.take();
  return q;
}

Admission JobQueue::admit(const std::string& tenant,
                          std::uint64_t payloadBytes,
                          const AdmissionLimits& limits) const {
  Admission a;
  if (residentCount() >= limits.maxResidentJobs) {
    a.reason = "queue-full";
    a.detail = std::to_string(residentCount()) + " job(s) resident, limit " +
               std::to_string(limits.maxResidentJobs);
    return a;
  }
  if (tenantResident(tenant) >= limits.maxPerTenant) {
    a.reason = "tenant-quota";
    a.detail = "tenant '" + tenant + "' has " +
               std::to_string(tenantResident(tenant)) +
               " job(s) resident, limit " +
               std::to_string(limits.maxPerTenant);
    return a;
  }
  if (residentBytes() + payloadBytes > limits.maxResidentBytes) {
    a.reason = "memory-watermark";
    a.detail = std::to_string(residentBytes()) + " payload byte(s) resident" +
               " + " + std::to_string(payloadBytes) + " submitted > " +
               std::to_string(limits.maxResidentBytes) + " watermark";
    return a;
  }
  a.admitted = true;
  return a;
}

Result<Job*> JobQueue::submit(const SubmitRequest& request) {
  char idBuf[16];
  std::snprintf(idBuf, sizeof(idBuf), "j%06llu",
                static_cast<unsigned long long>(nextId_));
  Job job;
  job.id = idBuf;
  job.tenant = request.tenant;
  job.format = request.format;
  job.seed = request.seed;
  job.jobs = request.jobs;
  job.isolate = request.isolate;
  job.detach = request.detach;
  job.faultPlan = request.faultPlan;
  job.bytes = request.implText.size() + request.specText.size();

  // Payload files first, WAL record second: a WAL submitted record
  // attests that the job's inputs are durably on disk.
  if (Status s = ensureDir(jobDir(job.id)); !s.isOk()) return s;
  if (Status s = writeFileAtomic(implPath(job), request.implText); !s.isOk())
    return s;
  if (Status s = writeFileAtomic(specPath(job), request.specText); !s.isOk())
    return s;
  Result<Job*> added = add(std::move(job));
  if (added.isOk()) ++nextId_;
  return added;
}

Result<Job*> JobQueue::registerCase(const std::string& name,
                                    const std::string& implPath,
                                    const std::string& specPath,
                                    std::uint64_t seed, std::int64_t jobs) {
  if (Job* existing = find(name)) {
    if (existing->implPath != implPath || existing->specPath != specPath ||
        existing->seed != seed || existing->jobs != jobs)
      return Status::invalidInput(
          "case '" + name +
          "' already in the queue with different inputs; refusing to "
          "resume a different manifest");
    return existing;
  }
  Job job;
  job.id = name;
  job.format = netlistFormatOf(implPath);
  job.implPath = implPath;
  job.specPath = specPath;
  job.seed = seed;
  job.jobs = jobs;
  if (Status s = ensureDir(jobDir(name)); !s.isOk()) return s;
  return add(std::move(job));
}

Result<Job*> JobQueue::add(Job job) {
  if (Status s = appendEvent("submitted", job); !s.isOk()) return s;
  jobs_.push_back(std::make_unique<Job>(std::move(job)));
  return jobs_.back().get();
}

Job* JobQueue::nextQueued() {
  for (std::unique_ptr<Job>& j : jobs_)
    if (j->state == QueueState::kQueued) return j.get();
  return nullptr;
}

Job* JobQueue::find(const std::string& id) {
  for (std::unique_ptr<Job>& j : jobs_)
    if (j->id == id) return j.get();
  return nullptr;
}

std::vector<Job*> JobQueue::all() {
  std::vector<Job*> out;
  out.reserve(jobs_.size());
  for (std::unique_ptr<Job>& j : jobs_) out.push_back(j.get());
  return out;
}

Status JobQueue::appendEvent(const std::string& event, const Job& job) {
  return wal_.append(serializeServeEvent(eventFor(event, job)));
}

Status JobQueue::commit(const std::string& event, Job& job, Job next) {
  if (Status s = appendEvent(event, next); !s.isOk()) return s;
  job = std::move(next);
  return Status::ok();
}

Status JobQueue::markRunning(Job& job, std::int64_t attempt,
                             const std::string& worker) {
  Job next = job;
  next.state = QueueState::kRunning;
  next.attempt = attempt;
  next.worker = worker;
  return commit("running", job, std::move(next));
}

Status JobQueue::markDone(Job& job, std::int64_t exitCode,
                          std::uint64_t cacheHits, std::uint64_t cacheMisses,
                          std::uint64_t cacheEvictions) {
  Job next = job;
  next.state = QueueState::kDone;
  next.exitCode = exitCode;
  next.cacheHits = cacheHits;
  next.cacheMisses = cacheMisses;
  next.cacheEvictions = cacheEvictions;
  next.cause.clear();
  next.detail.clear();
  return commit("done", job, std::move(next));
}

Status JobQueue::markFailed(Job& job, const std::string& cause,
                            const std::string& detail) {
  Job next = job;
  next.state = QueueState::kFailed;
  next.cause = cause;
  next.detail = detail;
  return commit("failed", job, std::move(next));
}

Status JobQueue::markCancelled(Job& job, const std::string& cause,
                               const std::string& detail) {
  Job next = job;
  next.state = QueueState::kCancelled;
  next.cause = cause;
  next.detail = detail;
  return commit("cancelled", job, std::move(next));
}

Status JobQueue::markRequeued(Job& job, const std::string& cause,
                              const std::string& detail) {
  Job next = job;
  next.state = QueueState::kQueued;
  next.resume = true;
  next.cause = cause;
  next.detail = detail;
  return commit("recovered", job, std::move(next));
}

Status JobQueue::note(const std::string& detail) {
  JournalServeEvent ev;
  ev.event = "note";
  ev.detail = detail;
  return wal_.append(serializeServeEvent(ev));
}

std::size_t JobQueue::residentCount() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Job>& j : jobs_)
    n += j->state == QueueState::kQueued || j->state == QueueState::kRunning;
  return n;
}

std::size_t JobQueue::tenantResident(const std::string& tenant) const {
  std::size_t n = 0;
  for (const std::unique_ptr<Job>& j : jobs_)
    n += (j->state == QueueState::kQueued ||
          j->state == QueueState::kRunning) &&
         j->tenant == tenant;
  return n;
}

std::uint64_t JobQueue::residentBytes() const {
  std::uint64_t n = 0;
  for (const std::unique_ptr<Job>& j : jobs_)
    if (j->state == QueueState::kQueued || j->state == QueueState::kRunning)
      n += j->bytes;
  return n;
}

std::string JobQueue::jobDir(const std::string& id) const {
  return stateDir_ + "/jobs/" + id;
}

std::string JobQueue::implPath(const Job& job) const {
  if (!job.implPath.empty()) return job.implPath;
  return jobDir(job.id) + "/impl" + formatExtension(job.format);
}

std::string JobQueue::specPath(const Job& job) const {
  if (!job.specPath.empty()) return job.specPath;
  return jobDir(job.id) + "/spec" + formatExtension(job.format);
}

std::string JobQueue::engineJournalDir(const Job& job) const {
  return jobDir(job.id) + "/journal";
}

std::string JobQueue::reportPath(const Job& job) const {
  return jobDir(job.id) + "/report.json";
}

std::string JobQueue::outPath(const Job& job) const {
  return jobDir(job.id) + "/out" + formatExtension(job.format);
}

std::string JobQueue::verdictsPath(const Job& job) const {
  return jobDir(job.id) + "/verdicts.txt";
}

std::string JobQueue::workerLogPath(const Job& job) const {
  return jobDir(job.id) + "/worker.log";
}

std::string JobQueue::faultPlanPath(const Job& job) const {
  return jobDir(job.id) + "/fault.plan";
}

}  // namespace syseco::serve
