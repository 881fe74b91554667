#pragma once
// Whole-case batch fan-out: the --batch sweep driver.
//
// runBatch registers every manifest case as a job of the WAL-backed
// JobQueue (its id is the manifest name, its inputs the manifest paths)
// and drives the queue to terminal states with the shared case Scheduler
// (serve/scheduler): remote over --workers agents while the fleet is
// healthy, the local PoolWatchdog pool otherwise, re-queued with resume on
// failure and quarantined past the attempt ceiling. All this front adds is
// the manifest and `batch_report.json`. A sweep killed at any instant is
// healed by `--batch MANIFEST --resume DIR` to the same artifacts.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/scheduler.hpp"
#include "util/status.hpp"

namespace syseco::serve {

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

/// The --batch sweep driver's knobs: the shared scheduler options plus the
/// manifest front's own.
struct BatchOptions : SchedulerOptions {
  std::string manifestPath;
  /// True for `--resume DIR`: the queue is expected to hold cases already.
  /// A fresh `--batch-state DIR` run refuses a non-empty queue instead of
  /// silently mixing sweeps.
  bool expectResume = false;
  std::uint64_t defaultSeed = 1;  ///< manifest entries without "seed"
  std::int64_t defaultJobs = 1;   ///< manifest entries without "jobs"
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
