#pragma once
// Whole-case batch fan-out: the --batch sweep driver and the case-level
// fleet scheduler it shares with the --serve daemon.
//
// CaseDispatcher is the supervisor side of the kTypeFleetCaseTask protocol
// (eco/isolate): it multiplexes every agent connection over one poll loop,
// uploads case payloads on demand through the crc32 content-addressed
// need-case handshake (so an agent's CaseCacheLru amortizes the upload
// across retries), renews case leases from agent heartbeats, and classifies
// everything that can go wrong - transport breaks, contained failures,
// expired leases, stale-epoch duplicates from reassigned cases - into
// events the caller folds into its durable ledger. Peer health: two
// strikes mark a peer dead, and a lease-expired peer keeps its connection
// (the late duplicate is cheaper to discard by epoch than a stream resync)
// but stops counting toward fleet health until it answers.
//
// runBatch drives a manifest of cases to verdicts through the WAL-backed
// BatchLedger: dispatch remote while the fleet holds >= minWorkers usable
// agents, degrade permanently to a local PoolWatchdog fork/exec pool when
// it shrinks below that, re-queue reclaimed cases with resume and the
// deterministic caseRedispatchBackoffSeconds pacing, and quarantine past
// the attempt ceiling. Every path - remote, degraded-local, killed and
// resumed - drains to verdict records and patched netlists bit-identical
// to running each case locally with `--jobs N`.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eco/isolate.hpp"
#include "serve/batch_ledger.hpp"
#include "util/ipc.hpp"
#include "util/status.hpp"

namespace syseco::serve {

/// Case-level redispatch pacing. Deliberately the per-output transports'
/// retryBackoffSeconds contract (same doubling base, same cap, same
/// seed-derived jitter) keyed by the case's manifest ordinal in place of
/// the output index - no new RNG path, and the same case retries on the
/// same deterministic schedule on every driver life.
double caseRedispatchBackoffSeconds(double backoffBaseMs, std::uint64_t seed,
                                    std::uint32_t caseOrdinal,
                                    int failedAttempts);

/// One manifest entry as parsed; seed/jobs fall back to the sweep defaults
/// when the manifest omits them.
struct ManifestCase {
  std::string name;
  std::string implPath;
  std::string specPath;
  std::uint64_t seed = 0;
  bool hasSeed = false;
  std::int64_t jobs = 0;
  bool hasJobs = false;
};

/// Parses a batch manifest: a JSON object whose "cases" array holds
/// {"name","impl","spec"[,"seed"][,"jobs"]} entries. Names must satisfy
/// validFleetCaseName (they name artifact directories) and be unique.
/// Hardened like the wire codecs: arbitrary bytes are kInvalidInput.
Result<std::vector<ManifestCase>> parseBatchManifest(std::string_view text);

/// Case-level fleet scheduler: connects lazily, assigns whole cases,
/// answers need-case uploads, and turns every asynchronous outcome into an
/// Event stream the caller folds into its ledger.
class CaseDispatcher {
 public:
  struct Options {
    std::vector<std::string> workers;  ///< "host:port" agent specs
    double leaseSeconds = 10.0;
    int connectTimeoutMs = 2000;
    int minWorkers = 1;  ///< usable-agent floor before degradation
    bool verbose = false;
  };

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

  explicit CaseDispatcher(Options opt);
  ~CaseDispatcher();
  CaseDispatcher(const CaseDispatcher&) = delete;
  CaseDispatcher& operator=(const CaseDispatcher&) = delete;

  bool enabled() const { return !opt_.workers.empty(); }
  /// Agents that can take (or are computing) work: not dead, not lagging
  /// behind an expired lease.
  std::size_t usableWorkers() const;
  /// True while usableWorkers() still meets the minWorkers floor.
  bool fleetUsable() const;
  bool hasIdlePeer() const;

  /// Dispatches one whole case to an idle usable agent. `casePayload` is
  /// the encodeFleetCase document (kept for need-case answers until the
  /// assignment settles); `attempt` is the ledger's dispatch ordinal,
  /// carried back in every event about this assignment. Peers that refuse
  /// the connection or the send are struck and the next idle peer is
  /// tried; kUnavailable when none accepted (the case stays queued).
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

  Options opt_;
  std::vector<Peer> peers_;
  std::uint64_t epochCounter_ = 0;
  /// Peer-death notes raised inside assign(), drained by the next poll().
  std::vector<Event> pending_;
};

/// The --batch sweep driver's knobs (CLI flags plus plumbing).
struct BatchOptions {
  std::string manifestPath;
  std::string stateDir;  ///< BatchLedger state directory
  std::string selfExe;   ///< binary exec'd for local fallback cases
  /// True for `--resume DIR`: the ledger is expected to hold cases already.
  /// A fresh `--batch-state DIR` run refuses a non-empty ledger instead of
  /// silently mixing sweeps.
  bool expectResume = false;
  std::vector<std::string> workers;  ///< empty: run everything locally
  double leaseSeconds = 10.0;
  int connectTimeoutMs = 2000;
  int minWorkers = 1;
  std::size_t poolSize = 1;  ///< local fallback pool width
  int maxAttempts = 3;       ///< dispatches per case before quarantine
  double backoffBaseMs = 100.0;
  std::uint64_t defaultSeed = 1;  ///< manifest entries without "seed"
  std::int64_t defaultJobs = 1;   ///< manifest entries without "jobs"
  bool verbose = false;
  std::atomic<bool>* stop = nullptr;  ///< SIGINT/SIGTERM drain flag
};

struct BatchOutcome {
  std::size_t done = 0;
  std::size_t failed = 0;  ///< quarantined cases
  /// Worst engine exit classification among the done cases (0 clean,
  /// 1 verify-failed, 4 degraded) - the sweep's own exit code when nothing
  /// was quarantined.
  std::int64_t worstCaseExit = 0;
  bool degradedToLocal = false;
  bool interrupted = false;
};

/// Runs (or resumes) a manifest sweep to completion. Non-ok only for setup
/// failures (manifest, state directory, WAL); per-case failures are
/// contained, journaled and counted in the outcome. Writes
/// `<stateDir>/batch_report.json` before returning.
Result<BatchOutcome> runBatch(const BatchOptions& opt);

}  // namespace syseco::serve
