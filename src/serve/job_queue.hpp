#pragma once
// WAL-backed durable job queue: the one case store of the --serve daemon
// and --batch sweeps (serve/scheduler drives both).
//
// A daemon job is submitted over the wire: its netlist texts are copied
// into its job directory and its id is assigned ("j%06u"). A batch case is
// registered from a manifest: its id is the manifest name and it keeps the
// manifest's input paths. Everything else - transitions, recovery,
// artifacts - is the same for both kinds.
//
// Every queue transition (submitted, running, done, failed, cancelled,
// recovered) is appended to a util/journal write-ahead log *before* the
// in-memory state mutates, with fsync-per-record durability. A driver
// killed with SIGKILL at any instant recovers the queue exactly by folding
// the WAL: terminal states stay terminal, queued jobs stay queued, and
// jobs that were mid-run come back as queued-with-resume so the scheduler
// re-runs them with --resume against their own engine journals - which is
// what makes post-crash verdict records bit-identical to an uninterrupted
// run (the engine's resume invariant, proven by the kill-and-resume suite).
//
// On-disk layout under the state directory:
//
//   queue/            the WAL (journal.jsonl + COMMIT), serve-event records
//   jobs/<id>/        one directory per job:
//     impl.<fmt>, spec.<fmt>   the submitted netlist texts (daemon jobs)
//     journal/                 the job's own engine run journal
//     report.json, out.<fmt>   the finished run's artifacts
//     verdicts.txt             the oracle's verdicts record (one line)
//     worker.log               captured stdout/stderr of a local worker
//
// The WAL is compacted on every open: recovery folds the old log, then a
// fresh log is written with one submitted record per job plus its current
// state, so the WAL length is bounded by the job count, not driver
// lifetime. Admission control reads its ledgers (resident job count,
// per-tenant depth, resident payload bytes) straight from the folded
// state.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/codec.hpp"
#include "util/journal.hpp"
#include "util/status.hpp"

namespace syseco::serve {

enum class QueueState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* queueStateName(QueueState s);

/// The job format (blif | v | netlist) of a netlist file, by extension.
std::string netlistFormatOf(const std::string& path);

/// One job's durable record plus dispatch bookkeeping.
struct Job {
  /// Daemon jobs: "j%06u", monotonically assigned, crash-stable. Batch
  /// cases: the manifest name.
  std::string id;
  std::string tenant;
  std::string format;  ///< blif | v | netlist (artifact file extensions)
  /// Manifest input paths of a batch case; empty for a daemon job, whose
  /// inputs are its submitted copies (see JobQueue::implPath).
  std::string implPath;
  std::string specPath;
  std::uint64_t seed = 1;
  std::int64_t jobs = 1;
  bool isolate = false;
  bool detach = false;
  std::string faultInject;   ///< test hook, propagated to the worker env
  std::uint64_t bytes = 0;   ///< impl+spec payload bytes (admission ledger)
  QueueState state = QueueState::kQueued;
  std::int64_t attempt = 0;  ///< dispatch ordinal (1 = first attempt)
  std::int64_t exitCode = 0;
  std::string cause;         ///< failure/cancel classification
  std::string detail;
  std::string worker;  ///< last dispatch target ("host:port", "" = local)
  /// Agent cache counters snapshotted with a remote result (zero for
  /// local runs).
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  /// A previous attempt (possibly in a previous driver life) left an engine
  /// journal behind: dispatch with --resume so committed per-output
  /// progress is kept and the final verdicts stay bit-identical.
  bool resume = false;
};

struct AdmissionLimits {
  std::size_t maxResidentJobs = 16;  ///< queued + running, daemon-wide
  std::size_t maxPerTenant = 8;      ///< queued + running, per tenant
  std::uint64_t maxResidentBytes = 256ull << 20;  ///< payload watermark
};

struct Admission {
  bool admitted = false;
  std::string reason;  ///< Rejected reason token when !admitted
  std::string detail;
};

class JobQueue {
 public:
  /// Opens (creating if needed) the state directory, folds the WAL to
  /// recover every job, re-queues jobs that were mid-run with the resume
  /// flag set, and compacts the WAL. recoveryNotes() describes what was
  /// recovered, for the scheduler to log and journal.
  static Result<JobQueue> open(const std::string& stateDir);

  /// Pure admission check against the current ledgers; does not mutate.
  Admission admit(const std::string& tenant, std::uint64_t payloadBytes,
                  const AdmissionLimits& limits) const;

  /// Persists the job: payload files first, then the WAL submitted record,
  /// then the in-memory entry. A crash between the two leaves only an
  /// orphaned payload directory, never a WAL record without its payload.
  Result<Job*> submit(const SubmitRequest& request);

  /// Registers a batch manifest case under its name, keeping its input
  /// paths. Idempotent on resume: a case already recovered under `name`
  /// with the same inputs is returned as-is; the same name with different
  /// inputs is kInvalidInput (resuming a different manifest is refused).
  Result<Job*> registerCase(const std::string& name,
                            const std::string& implPath,
                            const std::string& specPath, std::uint64_t seed,
                            std::int64_t jobs);

  /// Oldest queued job, or null. FIFO in submission order.
  Job* nextQueued();

  Job* find(const std::string& id);
  std::vector<Job*> all();

  // Durable transitions: WAL append first (fsync'd), then the mutation.
  Status markRunning(Job& job, std::int64_t attempt,
                     const std::string& worker = "");
  Status markDone(Job& job, std::int64_t exitCode, std::uint64_t cacheHits = 0,
                  std::uint64_t cacheMisses = 0,
                  std::uint64_t cacheEvictions = 0);
  Status markFailed(Job& job, const std::string& cause,
                    const std::string& detail);
  Status markCancelled(Job& job, const std::string& cause,
                       const std::string& detail);
  /// Heals a failed running job: appends a "recovered" record and flips
  /// it back to queued-with-resume so the next dispatch continues from the
  /// job's own engine journal.
  Status markRequeued(Job& job, const std::string& cause,
                      const std::string& detail);

  /// Appends a queue-wide note record (observability only; folded away on
  /// the next compaction).
  Status note(const std::string& detail);

  // Admission ledgers (queued + running).
  std::size_t residentCount() const;
  std::size_t tenantResident(const std::string& tenant) const;
  std::uint64_t residentBytes() const;

  // Input and artifact paths. A daemon job's inputs are its submitted
  // copies, a batch case's its manifest paths; artifacts live in the job
  // directory.
  std::string jobDir(const std::string& id) const;
  std::string implPath(const Job& job) const;
  std::string specPath(const Job& job) const;
  std::string engineJournalDir(const Job& job) const;
  std::string reportPath(const Job& job) const;
  std::string outPath(const Job& job) const;
  std::string verdictsPath(const Job& job) const;
  std::string workerLogPath(const Job& job) const;

  const std::string& stateDir() const { return stateDir_; }
  const std::vector<std::string>& recoveryNotes() const {
    return recoveryNotes_;
  }

  /// True once a storage fault latched the WAL writer (failed write/fsync
  /// or COMMIT-marker replacement). Both drivers fail closed on it: no
  /// transition can be made durable, so no further work may be accepted
  /// or dispatched - restart and recover instead.
  bool walPoisoned() const { return wal_.poisoned(); }
  const std::string& walPoisonCause() const { return wal_.poisonCause(); }

 private:
  JobQueue() = default;

  Status appendEvent(const std::string& event, const Job& job);
  /// Appends `event` for `next`, then replaces `job` with it.
  Status commit(const std::string& event, Job& job, Job next);
  Result<Job*> add(Job job);

  std::string stateDir_;
  JournalWriter wal_;
  /// Stable addresses (the scheduler holds Job* across ticks), in
  /// submission order.
  std::vector<std::unique_ptr<Job>> jobs_;
  std::uint64_t nextId_ = 1;
  std::vector<std::string> recoveryNotes_;
};

}  // namespace syseco::serve
