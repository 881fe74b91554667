#pragma once
// The case scheduler shared by the --serve daemon and --batch sweeps.
//
// Both drivers hand whole ECO cases to the same machinery: a WAL-backed
// JobQueue (serve/job_queue) holds every case durably, and one Scheduler
// moves them through it. Each tick the scheduler
//
//   - settles what the fleet reported: whole-case results, failures,
//     expired leases and stale-epoch duplicates (CaseDispatcher);
//   - reaps the local PoolWatchdog's exec'd engine workers;
//   - dispatches queued jobs: an idle agent first for fleet-eligible jobs,
//     else an idle local slot. A refused connection strikes the agent and
//     never spends the job's attempt;
//   - re-queues a failed attempt with resume on the deterministic
//     caseRedispatchBackoffSeconds schedule, or quarantines it past the
//     attempt ceiling;
//   - degrades permanently to the local pool once fewer than minWorkers
//     agents stay usable.
//
// The daemon adds only its socket/admission/cancel front, runBatch only the
// manifest and batch_report.json. Every path - remote, local, degraded,
// killed and resumed - drains to verdict records and patched netlists
// bit-identical to running each case locally with `--jobs N`.
//
// CaseDispatcher is the supervisor side of the kTypeFleetCaseTask protocol
// (eco/isolate): it multiplexes every agent connection over one poll loop,
// uploads case payloads on demand through the crc32 content-addressed
// need-case handshake (so an agent's CaseCacheLru amortizes the upload
// across retries), renews case leases from agent heartbeats, and classifies
// everything that can go wrong into events the scheduler folds into the
// queue. Peer health: two strikes mark a peer dead, and a lease-expired
// peer keeps its connection (the late duplicate is cheaper to discard by
// epoch than a stream resync) but stops counting toward fleet health until
// it answers.

#include <atomic>
#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "eco/isolate.hpp"
#include "serve/job_queue.hpp"
#include "serve/watchdog.hpp"
#include "util/ipc.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace syseco::serve {

/// The knobs the daemon and batch sweeps share (ServeOptions and
/// BatchOptions extend it with their front-end fields).
struct SchedulerOptions {
  std::string stateDir;  ///< queue WAL + per-job artifact directories
  std::string selfExe;   ///< binary exec'd per local run (the CLI's own)
  std::size_t poolSize = 1;      ///< local watchdog pool width
  int maxAttempts = 3;           ///< dispatches per job before quarantine
  double backoffBaseMs = 100.0;  ///< requeue pacing base (doubled, capped)
  /// "host:port" --serve-worker agents; empty runs everything locally.
  /// --isolate and fault-inject jobs always stay on the local pool.
  std::vector<std::string> workers;
  double leaseSeconds = 10.0;
  int connectTimeoutMs = 2000;
  int minWorkers = 1;  ///< usable-agent floor before degradation
  bool verbose = false;
  /// Polled every tick; a set flag drains to a clean shutdown (running
  /// jobs are recovered as queued-with-resume by the next life).
  std::atomic<bool>* stop = nullptr;
};

/// Per-case engine parallelism ceiling (the case-task wire contract).
inline constexpr std::int64_t kMaxCaseJobs = 256;

/// Case-level redispatch pacing. Deliberately the per-output transports'
/// retryBackoffSeconds contract (same doubling base, same cap, same
/// seed-derived jitter) keyed by `caseKey` (the scheduler passes
/// crc32(job id)) in place of the output index - no new RNG path, and the
/// same case retries on the same deterministic schedule on every life.
double caseRedispatchBackoffSeconds(double backoffBaseMs, std::uint64_t seed,
                                    std::uint32_t caseKey,
                                    int failedAttempts);

/// Parses netlist text in a job format (blif | v | netlist) with the
/// checked parsers - the one loader per format both drivers use.
Result<Netlist> readNetlistAs(const std::string& format, std::istream& is);

/// Case-level fleet scheduler: connects lazily, assigns whole cases,
/// answers need-case uploads, and turns every asynchronous outcome into an
/// Event stream the Scheduler folds into the queue.
class CaseDispatcher {
 public:
  /// A successful dispatch: which agent took the case under which epoch.
  struct Assignment {
    std::string worker;
    std::uint64_t epoch = 0;
  };

  enum class EventKind {
    kResult,        ///< decoded whole-case result for the live assignment
    kFailure,       ///< the assignment failed; the case must be re-queued
    kStaleDiscard,  ///< duplicate from a reclaimed epoch, discarded
    kPeerDead,      ///< an agent crossed the strike limit (no case attached)
  };

  struct Event {
    EventKind kind = EventKind::kFailure;
    std::string name;   ///< assigned case (kResult/kFailure/kStaleDiscard)
    std::string worker;
    std::int64_t attempt = 0;  ///< dispatch ordinal of the assignment
    FleetCaseResult result;    ///< kResult only
    std::string cause;   ///< workerExitCauseName token (kFailure/kPeerDead)
    std::string detail;
  };

  CaseDispatcher(const SchedulerOptions& opt, const char* logTag);
  ~CaseDispatcher();
  CaseDispatcher(const CaseDispatcher&) = delete;
  CaseDispatcher& operator=(const CaseDispatcher&) = delete;

  bool enabled() const { return !peers_.empty(); }
  /// Agents that can take (or are computing) work: not dead, not lagging
  /// behind an expired lease.
  std::size_t usableWorkers() const;
  /// True while usableWorkers() still meets the minWorkers floor.
  bool fleetUsable() const;
  bool hasIdlePeer() const;

  /// Dispatches one whole case to an idle usable agent. `casePayload` is
  /// the encodeFleetCase document (kept for need-case answers until the
  /// assignment settles); `attempt` is the queue's dispatch ordinal,
  /// carried back in every event about this assignment. Peers that refuse
  /// the connection or the send are struck and the next idle peer is
  /// tried; non-ok when none accepted (the case stays queued).
  Result<Assignment> assign(const std::string& name, std::string casePayload,
                            std::int64_t jobs, std::int64_t attempt,
                            double nowSeconds);

  /// Readable fds for the caller's poll tick (all live agent connections).
  std::vector<int> pollFds() const;

  /// One non-blocking pump of every agent connection plus lease
  /// enforcement. Returns the events that settled this tick.
  std::vector<Event> poll(double nowSeconds);

  void closeAll();

 private:
  struct Peer {
    std::string spec;  ///< "host:port" as configured
    std::string host;
    std::uint16_t port = 0;
    int fd = -1;
    std::string rx;
    int strikes = 0;
    bool dead = false;
    /// Lease expired with the connection kept: out of the health count
    /// until the stale duplicate lands (or the stream breaks).
    bool lagging = false;
    bool busy = false;
    std::string caseName;
    std::string casePayload;  ///< for need-case answers mid-assignment
    std::uint32_t caseCrc = 0;
    std::uint64_t epoch = 0;
    std::int64_t attempt = 0;
    double deadline = 0.0;
  };

  void log(const std::string& msg) const;
  /// Strikes `p` and tears the connection down; reclaims its case (as a
  /// kFailure event) when one was in flight.
  void breakPeer(Peer& p, const std::string& cause, const std::string& why,
                 std::vector<Event>& out);
  void servicePeer(Peer& p, double nowSeconds, std::vector<Event>& out);
  void handleFrame(Peer& p, const ipc::Frame& frame, double nowSeconds,
                   std::vector<Event>& out);
  Event reclaim(Peer& p, const std::string& cause, const std::string& why);

  const SchedulerOptions& opt_;
  const char* logTag_;
  std::vector<Peer> peers_;
  std::uint64_t epochCounter_ = 0;
  /// Peer-death notes raised inside assign(), drained by the next poll().
  std::vector<Event> pending_;
};

/// Drives the jobs of one JobQueue to terminal states over the fleet and
/// the local watchdog pool. The caller owns the loop: poll pollFds() (plus
/// its own fds), then tick().
class Scheduler {
 public:
  /// `opt` and `queue` must outlive the scheduler. Journals the queue's
  /// recovery notes. `logTag` prefixes stderr lines ("serve", "batch").
  Scheduler(const SchedulerOptions& opt, JobQueue& queue, const char* logTag);

  /// Agent connections to include in the caller's poll.
  std::vector<int> pollFds() const { return dispatcher_.pollFds(); }

  /// One scheduling pass: fleet health, agent events, local exits, then
  /// dispatch of every queued job whose backoff has elapsed.
  void tick();

  /// Cancels a queued or running job; a local worker is terminated, a
  /// remote result is discarded on arrival. Terminal jobs are left alone.
  void cancel(Job& job, const std::string& cause, const std::string& detail);

  /// Terminates local workers and closes agent connections. Running jobs
  /// stay running in the WAL, so the next life resumes them.
  void shutdown();

  /// True once a configured fleet shrank below minWorkers.
  bool degradedToLocal() const { return degraded_ && dispatcher_.enabled(); }

 private:
  void log(const std::string& msg) const;
  /// stderr warning plus a WAL note.
  void warn(const std::string& msg);
  void settle(const CaseDispatcher::Event& ev, double now);
  void reapLocal(double now);
  bool dispatchRemote(Job& job, double now);
  void dispatchLocal(Job& job, double now);
  void requeueOrQuarantine(Job& job, const std::string& cause,
                           const std::string& detail, double now);
  /// Writes the one-line verdicts artifact both transports leave behind.
  void writeVerdicts(const Job& job, const std::string& line);

  const SchedulerOptions& opt_;
  const char* logTag_;
  JobQueue& queue_;
  CaseDispatcher dispatcher_;
  PoolWatchdog pool_;
  Timer clock_;
  /// Retry pacing: job id -> monotonic seconds before which it must not be
  /// re-dispatched. In memory only: backoff clocks restart on a new life.
  std::map<std::string, double> notBefore_;
  bool degraded_;
};

}  // namespace syseco::serve
