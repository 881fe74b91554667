#include "serve/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "io/netlist_io.hpp"
#include "io/verilog_io.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/io_retry.hpp"
#include "util/journal.hpp"
#include "util/socket.hpp"

namespace syseco::serve {

double caseRedispatchBackoffSeconds(double backoffBaseMs, std::uint64_t seed,
                                    std::uint32_t caseKey,
                                    int failedAttempts) {
  // The per-output transports' deterministic contract, re-keyed: the case
  // key stands in for the output index, so every life paces the same case
  // on the same schedule from (seed, key) alone.
  SysecoOptions opt;
  opt.isolateBackoffMs = backoffBaseMs;
  opt.seed = seed;
  return retryBackoffSeconds(opt, caseKey, failedAttempts);
}

Result<Netlist> readNetlistAs(const std::string& format, std::istream& is) {
  if (format == "blif") return readBlifChecked(is);
  if (format == "v") return readVerilogChecked(is);
  return readNetlistChecked(is);
}

// --- CaseDispatcher -------------------------------------------------------

namespace {

constexpr int kPeerMaxStrikes = 2;

const char* recvBreakCause(net::RecvStatus st) {
  switch (st) {
    case net::RecvStatus::kTruncated: return "frame-truncated";
    case net::RecvStatus::kGarbage: return "garbage-ipc";
    default: return "conn-reset";
  }
}

}  // namespace

CaseDispatcher::CaseDispatcher(const SchedulerOptions& opt,
                               const char* logTag)
    : opt_(opt), logTag_(logTag) {
  for (const std::string& spec : opt_.workers) {
    Peer p;
    p.spec = spec;
    Result<std::pair<std::string, std::uint16_t>> hp = net::parseHostPort(spec);
    if (!hp.isOk()) {
      // A malformed spec can never serve; it is born dead (and reported so
      // the queue WAL shows why the fleet is smaller than configured).
      p.dead = true;
      Event ev;
      ev.kind = EventKind::kPeerDead;
      ev.worker = spec;
      ev.cause = "conn-refused";
      ev.detail = "bad worker spec: " + hp.status().message();
      pending_.push_back(std::move(ev));
    } else {
      p.host = hp.value().first;
      p.port = hp.value().second;
    }
    peers_.push_back(std::move(p));
  }
}

CaseDispatcher::~CaseDispatcher() {
  for (Peer& p : peers_) net::closeSocket(p.fd);
}

void CaseDispatcher::log(const std::string& msg) const {
  if (opt_.verbose)
    std::fprintf(stderr, "[syseco-%s] %s\n", logTag_, msg.c_str());
}

std::size_t CaseDispatcher::usableWorkers() const {
  std::size_t n = 0;
  for (const Peer& p : peers_)
    if (!p.dead && !p.lagging) ++n;
  return n;
}

bool CaseDispatcher::fleetUsable() const {
  return usableWorkers() >= static_cast<std::size_t>(std::max(1, opt_.minWorkers));
}

bool CaseDispatcher::hasIdlePeer() const {
  for (const Peer& p : peers_)
    if (!p.dead && !p.lagging && !p.busy) return true;
  return false;
}

std::vector<int> CaseDispatcher::pollFds() const {
  std::vector<int> fds;
  for (const Peer& p : peers_)
    if (p.fd >= 0) fds.push_back(p.fd);
  return fds;
}

CaseDispatcher::Event CaseDispatcher::reclaim(Peer& p, const std::string& cause,
                                              const std::string& why) {
  Event ev;
  ev.kind = EventKind::kFailure;
  ev.name = p.caseName;
  ev.worker = p.spec;
  ev.attempt = p.attempt;
  ev.cause = cause;
  ev.detail = why;
  p.busy = false;
  p.casePayload.clear();
  p.casePayload.shrink_to_fit();
  return ev;
}

void CaseDispatcher::breakPeer(Peer& p, const std::string& cause,
                               const std::string& why,
                               std::vector<Event>& out) {
  if (p.busy) out.push_back(reclaim(p, cause, why));
  net::closeSocket(p.fd);
  p.rx.clear();
  p.lagging = false;
  ++p.strikes;
  if (p.strikes >= kPeerMaxStrikes && !p.dead) {
    p.dead = true;
    Event ev;
    ev.kind = EventKind::kPeerDead;
    ev.worker = p.spec;
    ev.cause = cause;
    ev.detail = why;
    out.push_back(std::move(ev));
    log("worker " + p.spec + " marked dead: " + why);
  }
}

Result<CaseDispatcher::Assignment> CaseDispatcher::assign(
    const std::string& name, std::string casePayload, std::int64_t jobs,
    std::int64_t attempt, double nowSeconds) {
  const std::uint32_t crc = crc32(casePayload);
  for (Peer& p : peers_) {
    if (p.dead || p.lagging || p.busy) continue;
    if (p.fd < 0) {
      Result<int> fd = net::connectTo(p.host, p.port, opt_.connectTimeoutMs);
      if (!fd.isOk()) {
        // The case never reached the agent: the refusal strikes the peer,
        // not the case's retry budget.
        breakPeer(p, "conn-refused", fd.status().message(), pending_);
        continue;
      }
      p.fd = fd.take();
      p.rx.clear();
    }
    FleetCaseTask task;
    task.name = name;
    task.caseCrc = crc;
    task.epoch = ++epochCounter_;
    task.leaseSeconds = opt_.leaseSeconds;
    task.jobs = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(jobs, 1, kMaxCaseJobs));
    task.attempt = attempt;
    if (!net::sendFrame(p.fd, ipc::kTypeFleetCaseTask,
                        encodeFleetCaseTask(task))
             .isOk()) {
      breakPeer(p, "conn-reset", "case task send failed", pending_);
      continue;
    }
    p.busy = true;
    p.caseName = name;
    p.casePayload = std::move(casePayload);
    p.caseCrc = crc;
    p.epoch = task.epoch;
    p.attempt = attempt;
    p.deadline = nowSeconds + opt_.leaseSeconds;
    log("case " + name + " -> " + p.spec + " (epoch " +
        std::to_string(task.epoch) + ", attempt " + std::to_string(attempt) +
        ")");
    Assignment a;
    a.worker = p.spec;
    a.epoch = task.epoch;
    return a;
  }
  return Status::internal("no idle usable agent accepted the case");
}

void CaseDispatcher::handleFrame(Peer& p, const ipc::Frame& frame,
                                 double nowSeconds, std::vector<Event>& out) {
  switch (frame.type) {
    case ipc::kTypeFleetNeedCase: {
      Result<std::uint32_t> crc = decodeFleetNeedCase(frame.payload);
      if (!crc.isOk() || !p.busy || crc.value() != p.caseCrc) {
        breakPeer(p, "garbage-ipc", "bad need-case frame", out);
        return;
      }
      log("case upload to " + p.spec + " (" +
          std::to_string(p.casePayload.size()) + " bytes)");
      if (!net::sendFrame(p.fd, ipc::kTypeFleetCase, p.casePayload).isOk())
        breakPeer(p, "conn-reset", "case upload failed", out);
      return;
    }
    case ipc::kTypeFleetHeartbeat: {
      Result<std::uint64_t> ep = decodeFleetHeartbeat(frame.payload);
      if (!ep.isOk()) {
        breakPeer(p, "garbage-ipc", "bad heartbeat frame", out);
        return;
      }
      // Heartbeats for reclaimed epochs are ignored: the peer stays
      // lagging until its stale result lands.
      if (p.busy && ep.value() == p.epoch)
        p.deadline = nowSeconds + opt_.leaseSeconds;
      return;
    }
    case ipc::kTypeFleetCaseResult: {
      Result<FleetCaseResult> res = decodeFleetCaseResult(frame.payload);
      if (!res.isOk()) {
        breakPeer(p, "garbage-ipc",
                  "undecodable case result: " + res.status().message(), out);
        return;
      }
      if (!p.busy || res.value().epoch != p.epoch) {
        // The duplicate from a reclaimed assignment: discarded by epoch,
        // and the agent - alive, honest, just too late - rejoins the pool.
        Event ev;
        ev.kind = EventKind::kStaleDiscard;
        ev.name = p.caseName;
        ev.worker = p.spec;
        ev.cause = "stale-epoch";
        ev.detail = "discarded duplicate result for epoch " +
                    std::to_string(res.value().epoch);
        out.push_back(std::move(ev));
        p.lagging = false;
        p.strikes = 0;
        return;
      }
      Event ev;
      ev.kind = EventKind::kResult;
      ev.name = p.caseName;
      ev.worker = p.spec;
      ev.attempt = p.attempt;
      ev.result = res.take();
      out.push_back(std::move(ev));
      p.busy = false;
      p.strikes = 0;
      p.casePayload.clear();
      p.casePayload.shrink_to_fit();
      return;
    }
    case ipc::kTypeFleetFailure: {
      Result<FleetFailure> fail = decodeFleetFailure(frame.payload);
      if (!fail.isOk()) {
        breakPeer(p, "garbage-ipc", "bad failure frame", out);
        return;
      }
      if (!p.busy || fail.value().epoch != p.epoch) {
        Event ev;
        ev.kind = EventKind::kStaleDiscard;
        ev.name = p.caseName;
        ev.worker = p.spec;
        ev.cause = "stale-epoch";
        ev.detail = "discarded duplicate failure for epoch " +
                    std::to_string(fail.value().epoch);
        out.push_back(std::move(ev));
        p.lagging = false;
        p.strikes = 0;
        return;
      }
      // A contained failure report proves the agent itself is healthy.
      Event ev = reclaim(p, fail.value().cause, fail.value().detail);
      out.push_back(std::move(ev));
      p.strikes = 0;
      return;
    }
    default:
      breakPeer(p, "garbage-ipc",
                "unexpected frame type " + std::to_string(frame.type), out);
      return;
  }
}

void CaseDispatcher::servicePeer(Peer& p, double nowSeconds,
                                 std::vector<Event>& out) {
  if (p.fd < 0) return;
  const ioretry::DrainOutcome dr = ioretry::drainNonblockingRaw(p.fd, &p.rx);
  const bool eof = dr.state == ioretry::DrainState::kEof;
  const int derr = dr.state == ioretry::DrainState::kError ? dr.err : 0;
  while (p.fd >= 0) {
    net::RecvOutcome o = net::takeFrame(&p.rx, eof, derr);
    if (o.status == net::RecvStatus::kFrame) {
      handleFrame(p, o.frame, nowSeconds, out);
      continue;
    }
    if (o.status == net::RecvStatus::kTimeout) break;  // stream intact
    const char* cause = recvBreakCause(o.status);
    breakPeer(p, cause, o.detail.empty() ? cause : o.detail, out);
    break;
  }
}

std::vector<CaseDispatcher::Event> CaseDispatcher::poll(double nowSeconds) {
  std::vector<Event> out;
  out.swap(pending_);
  for (Peer& p : peers_) servicePeer(p, nowSeconds, out);

  // Lease enforcement: a case with no heartbeat inside its lease is
  // reclaimed. The connection is kept - the agent may still deliver a
  // now-stale result, and discarding it by epoch is cheaper than
  // resynchronizing a torn stream - but the peer stops counting toward
  // fleet health until that happens.
  for (Peer& p : peers_) {
    if (!p.busy || p.fd < 0 || nowSeconds <= p.deadline) continue;
    out.push_back(reclaim(p, "lease-expired", "no heartbeat within the lease"));
    ++p.strikes;
    if (p.strikes >= kPeerMaxStrikes) {
      net::closeSocket(p.fd);
      p.rx.clear();
      p.dead = true;
      Event ev;
      ev.kind = EventKind::kPeerDead;
      ev.worker = p.spec;
      ev.cause = "lease-expired";
      ev.detail = "strike limit after repeated lease expiries";
      out.push_back(std::move(ev));
      log("worker " + p.spec + " marked dead after repeated lease expiries");
    } else {
      p.lagging = true;
      log("case " + p.caseName + " lease expired on " + p.spec +
          "; reclaimed (peer lagging)");
    }
  }
  return out;
}

void CaseDispatcher::closeAll() {
  for (Peer& p : peers_) {
    if (p.busy)
      pending_.push_back(
          reclaim(p, "conn-reset", "fleet closed; case reclaimed"));
    net::closeSocket(p.fd);
    p.rx.clear();
    p.lagging = false;
    p.dead = true;
  }
}

// --- Scheduler ------------------------------------------------------------

namespace {

constexpr double kTerminateGraceSeconds = 1.0;

Result<Netlist> loadNetlistFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::invalidInput("cannot open '" + path + "'");
  return readNetlistAs(netlistFormatOf(path), is);
}

void saveNetlistAs(const std::string& format, const std::string& path,
                   const Netlist& nl) {
  if (format == "blif")
    saveBlif(path, nl);
  else if (format == "v")
    saveVerilog(path, nl);
  else
    saveNetlist(path, nl);
}

/// The last verdicts record a finished local worker left in its engine
/// journal (empty when the run had no oracle or died early). The verdict
/// record is timing-free by design, which is what makes it the
/// bit-comparison anchor across local, remote and resumed executions.
std::string verdictsLineFromJournal(const std::string& journalDir) {
  Result<JournalScan> scan = scanJournal(journalDir);
  if (!scan.isOk()) return {};
  std::string last;
  for (const JournalFrame& f : scan.value().frames)
    if (f.payload.rfind("{\"type\":\"verdicts\"", 0) == 0) last = f.payload;
  return last;
}

}  // namespace

Scheduler::Scheduler(const SchedulerOptions& opt, JobQueue& queue,
                     const char* logTag)
    : opt_(opt),
      logTag_(logTag),
      queue_(queue),
      dispatcher_(opt, logTag),
      pool_(opt.poolSize),
      degraded_(!dispatcher_.enabled()) {
  for (const std::string& n : queue_.recoveryNotes()) {
    log("recovery: " + n);
    queue_.note("recovery: " + n);
  }
}

void Scheduler::log(const std::string& msg) const {
  if (opt_.verbose)
    std::fprintf(stderr, "[syseco-%s] %s\n", logTag_, msg.c_str());
}

void Scheduler::warn(const std::string& msg) {
  std::fprintf(stderr, "[syseco-%s] warning: %s\n", logTag_, msg.c_str());
  queue_.note("warning: " + msg);
}

void Scheduler::tick() {
  const double now = clock_.seconds();
  if (!degraded_ && !dispatcher_.fleetUsable()) {
    degraded_ = true;
    warn("fleet degraded (" + std::to_string(dispatcher_.usableWorkers()) +
         " usable worker(s), minimum " + std::to_string(opt_.minWorkers) +
         "); continuing with the local pool");
    // closeAll reclaims in-flight remote cases; poll() below surfaces them
    // as failure events that re-queue onto the local pool.
    dispatcher_.closeAll();
  }
  for (const CaseDispatcher::Event& ev : dispatcher_.poll(now)) settle(ev, now);
  reapLocal(now);

  for (Job* job : queue_.all()) {
    if (job->state != QueueState::kQueued) continue;
    if (auto it = notBefore_.find(job->id);
        it != notBefore_.end() && now < it->second)
      continue;  // still backing off; later queued jobs may proceed
    // Plain jobs ride the fleet while it is healthy; --isolate and
    // fault-inject jobs always run on the local pool (their semantics are
    // local by construction).
    const bool fleetEligible = !job->isolate && job->faultInject.empty();
    if (fleetEligible && !degraded_ && dispatcher_.hasIdlePeer() &&
        dispatchRemote(*job, now))
      continue;
    if (pool_.hasIdleSlot()) dispatchLocal(*job, now);
  }
}

bool Scheduler::dispatchRemote(Job& job, double now) {
  // Any hiccup rebuilding the case upload falls back to the local pool,
  // where the engine itself classifies the inputs.
  Result<Netlist> base = loadNetlistFile(queue_.implPath(job));
  Result<Netlist> spec = loadNetlistFile(queue_.specPath(job));
  if (!base.isOk() || !spec.isOk()) {
    log("job " + job.id + ": payload unreadable; using the local pool");
    return false;
  }
  SysecoOptions eopt;
  eopt.seed = job.seed;
  const std::int64_t attempt = job.attempt + 1;
  // Assign first, journal second: an agent that refuses the connection is
  // struck without spending the job's attempt.
  Result<CaseDispatcher::Assignment> a = dispatcher_.assign(
      job.id, encodeFleetCase(base.value(), spec.value(), eopt), job.jobs,
      attempt, now);
  if (!a.isOk()) return false;
  if (Status s = queue_.markRunning(job, attempt, a.value().worker); !s.isOk())
    warn("cannot journal dispatch of " + job.id + ": " + s.message());
  return true;
}

void Scheduler::dispatchLocal(Job& job, double now) {
  // Journal first, spawn second: the worker's engine journal must never
  // exist behind the back of a WAL that still says queued.
  const std::int64_t attempt = job.attempt + 1;
  const bool resume = job.resume;
  if (Status s = queue_.markRunning(job, attempt, ""); !s.isOk()) {
    warn("cannot journal dispatch of " + job.id + ": " + s.message());
    return;
  }
  std::vector<std::string> argv = {
      opt_.selfExe,
      "--impl", queue_.implPath(job),
      "--spec", queue_.specPath(job),
      resume ? "--resume" : "--journal", queue_.engineJournalDir(job),
      "--report", queue_.reportPath(job),
      "--out", queue_.outPath(job),
      "--seed", std::to_string(job.seed),
      "--jobs", std::to_string(job.jobs),
  };
  if (job.isolate) argv.push_back("--isolate");
  std::vector<std::string> env;
  if (!job.faultInject.empty())
    env.push_back("SYSECO_FAULT_INJECT=" + job.faultInject);
  Status spawned = pool_.spawn(job.id, attempt, argv,
                               queue_.workerLogPath(job), env);
  if (!spawned.isOk()) {
    requeueOrQuarantine(job, "crash", "spawn failed: " + spawned.message(),
                        now);
    return;
  }
  log("job " + job.id + " -> local pool (attempt " + std::to_string(attempt) +
      (resume ? ", resume)" : ")"));
}

void Scheduler::requeueOrQuarantine(Job& job, const std::string& cause,
                                    const std::string& detail, double now) {
  if (job.attempt >= opt_.maxAttempts) {
    queue_.markFailed(job, cause,
                      "quarantined after " + std::to_string(job.attempt) +
                          " attempt(s); last failure: " + detail);
    log("job " + job.id + " quarantined (" + cause + "): " + detail);
    return;
  }
  queue_.markRequeued(job, cause, detail);
  notBefore_[job.id] =
      now + caseRedispatchBackoffSeconds(opt_.backoffBaseMs, job.seed,
                                         crc32(job.id),
                                         static_cast<int>(job.attempt));
  log("job " + job.id + " re-queued with resume (" + cause + "): " + detail);
}

void Scheduler::writeVerdicts(const Job& job, const std::string& line) {
  if (Status s = writeFileAtomic(queue_.verdictsPath(job),
                                 line.empty() ? line : line + "\n");
      !s.isOk())
    warn("cannot write verdicts for " + job.id + ": " + s.message());
}

void Scheduler::settle(const CaseDispatcher::Event& ev, double now) {
  switch (ev.kind) {
    case CaseDispatcher::EventKind::kResult: {
      Job* job = queue_.find(ev.name);
      if (job == nullptr || job->state != QueueState::kRunning)
        return;  // cancelled while the result was in flight
      Result<Netlist> nl = Netlist::restoreRawString(ev.result.netlist);
      if (!nl.isOk()) {
        requeueOrQuarantine(*job, "garbage-ipc",
                            "result netlist failed validation: " +
                                nl.status().message(),
                            now);
        return;
      }
      if (Status s = writeFileAtomic(queue_.reportPath(*job), ev.result.report);
          !s.isOk())
        warn("cannot write report for " + job->id + ": " + s.message());
      saveNetlistAs(job->format, queue_.outPath(*job), nl.value());
      writeVerdicts(*job, ev.result.verdicts);
      queue_.markDone(*job, ev.result.exitCode, ev.result.cacheHits,
                      ev.result.cacheMisses, ev.result.cacheEvictions);
      log("job " + job->id + " done on " + ev.worker + " (exit " +
          std::to_string(ev.result.exitCode) + ", cache " +
          std::to_string(ev.result.cacheHits) + "h/" +
          std::to_string(ev.result.cacheMisses) + "m/" +
          std::to_string(ev.result.cacheEvictions) + "e)");
      return;
    }
    case CaseDispatcher::EventKind::kFailure: {
      Job* job = queue_.find(ev.name);
      if (job == nullptr || job->state != QueueState::kRunning) return;
      requeueOrQuarantine(*job, ev.cause, ev.detail, now);
      return;
    }
    case CaseDispatcher::EventKind::kStaleDiscard:
      queue_.note("stale-epoch duplicate from " + ev.worker +
                  " discarded (job " + ev.name + "): " + ev.detail);
      return;
    case CaseDispatcher::EventKind::kPeerDead:
      queue_.note("worker " + ev.worker + " marked dead (" + ev.cause +
                  "): " + ev.detail);
      return;
  }
}

void Scheduler::reapLocal(double now) {
  for (const WorkerExit& e : pool_.reap()) {
    Job* job = queue_.find(e.job);
    if (job == nullptr || job->state != QueueState::kRunning)
      continue;  // cancelled while the exit was in flight
    if (!e.retryable) {
      // The local worker's verdicts live in its engine journal; mirror
      // them to the same artifact a remote result writes so every job
      // directory compares the same way.
      writeVerdicts(*job,
                    verdictsLineFromJournal(queue_.engineJournalDir(*job)));
      queue_.markDone(*job, e.exitCode);
      log("job " + job->id + " done locally (exit " +
          std::to_string(e.exitCode) + ", attempt " +
          std::to_string(e.attempt) + ")");
      continue;
    }
    const std::string how = e.signaled ? "signal " + std::to_string(e.signal)
                                       : "exit " + std::to_string(e.exitCode);
    requeueOrQuarantine(*job, e.cause, "worker died (" + how + ")", now);
  }
}

void Scheduler::cancel(Job& job, const std::string& cause,
                       const std::string& detail) {
  // Terminal states are left alone: cancel is idempotent and never
  // rewrites history.
  if (job.state != QueueState::kQueued && job.state != QueueState::kRunning)
    return;
  pool_.terminate(job.id, kTerminateGraceSeconds);
  queue_.markCancelled(job, cause, detail);
  log("job " + job.id + " cancelled (" + cause + ")");
}

void Scheduler::shutdown() {
  log("stopping: terminating " + std::to_string(pool_.busy()) +
      " local worker(s)");
  pool_.terminateAll(kTerminateGraceSeconds);
  dispatcher_.closeAll();
}

}  // namespace syseco::serve
