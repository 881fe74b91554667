#pragma once
// Deterministic fault injection for the resource-governor degradation paths
// and the storage stack.
//
// Budget exhaustion, BDD node blowups and allocation failures are rare and
// timing-dependent in production, which makes the code that reacts to them
// (staged degradation, cone-clone fallback, structured parser errors) the
// least-tested code in the engine. This hook lets tests - and operators,
// via the SYSECO_FAULT_INJECT environment variable - force those outcomes
// at named sites so every degradation path runs deterministically.
//
// Environment syntax (comma-separated triggers):
//
//   SYSECO_FAULT_INJECT="<site>=<kind>[@<skip>][,...]"
//
//   kind: budget | deadline | bdd | alloc | crash | oom | hang |
//         garbage-ipc | wrong-patch | net-truncate | net-reset | net-delay |
//         enospc | eio | short-write | fsync-fail | torn-frame
//   skip: number of hits at the site to let through before firing
//         (default 0: fire from the first hit onward)
//
// `crash` is special: the process exits immediately (std::_Exit(137),
// mirroring a SIGKILL) with no cleanup, destructors or buffer flushes -
// the honest simulation of kill -9 that the crash-safe run journal must
// survive. It fires centrally inside Injector::fireDetail, so every armed
// site doubles as a crash site.
//
// e.g. SYSECO_FAULT_INJECT="syseco.sampling=budget,syseco.pointsets=bdd@1"
//
// Sites are plain string tags; the instrumented locations are listed next
// to their call sites (grep for fault::fire) and tabulated in the README.
// An env-armed trigger keeps firing once its skip count is consumed -
// degradation must hold up under persistent, not transient, exhaustion.
// Scheduled triggers (Injector::schedule, util/fault_plan) fire exactly
// once, at the k-th hit of their site: the reproducible "at hit k of site
// S, inject kind K" schedules the chaos harness sweeps.
//
// Hit counting is per site, shared by every trigger on that site, so a
// schedule with several entries on one site sees one consistent ordinal
// sequence.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace syseco::fault {

enum class Kind {
  kBudgetExhausted,   ///< behave as if a conflict/node ledger ran dry
  kDeadlineExceeded,  ///< behave as if the wall clock passed the deadline
  kBddBlowup,         ///< behave as if the BDD manager hit its node limit
  kAllocFailure,      ///< behave as if an allocation failed
  kCrash,             ///< hard-exit the process (simulated kill -9)
  // Isolation-supervisor containment kinds, honored at the worker-child
  // sites (grep for fault::fire("isolate.")): the worker genuinely
  // misbehaves and the supervisor must observe and contain it end to end.
  kOom,         ///< worker: allocation failure escapes the whole task
  kHang,        ///< worker: ignore SIGTERM and spin until SIGKILLed
  kGarbageIpc,  ///< worker: respond with a corrupted IPC frame
  // Certification-oracle kind, honored at the "oracle.wrong-patch" site:
  // the engine silently miscompiles a committed patch so the tri-modal
  // oracle must catch, diagnose and quarantine the corrupted output.
  kWrongPatch,  ///< engine: corrupt a committed patch before certification
  // Agent-transport kinds, honored at the worker-agent sites (grep for
  // fault::fire("fleet.agent.case")): the agent genuinely misbehaves on the
  // wire and the case dispatcher must classify and contain it.
  kNetTruncate,  ///< agent: send a partial result frame, then close
  kNetReset,     ///< agent: drop the connection between request and result
  kNetDelay,     ///< agent: suppress heartbeats and respond after the lease
  // Storage kinds, honored by the fallible write/fsync shim threaded under
  // util/journal, util/atomic_file and the serve WALs (fallibleWrite /
  // fallibleFsync below). The consumers fail closed: a poisoned journal
  // handle refuses further appends, and fold-on-open truncates back to the
  // last COMMIT.
  kEnospc,      ///< write fails with ENOSPC; nothing reaches the file
  kEio,         ///< write fails with EIO; nothing reaches the file
  kShortWrite,  ///< write persists only a prefix and reports the count
  kFsyncFail,   ///< fsync fails with EIO without syncing (fsyncgate)
  kTornFrame,   ///< write persists `arg` bytes, then fails (power cut)
};

/// Exit code of a kCrash firing: 128 + SIGKILL, what a shell reports for a
/// genuinely killed process.
inline constexpr int kCrashExitCode = 137;

/// Canonical spelling of a kind (the SYSECO_FAULT_INJECT / fault-plan
/// token), and its inverse. Unknown names map to nullopt.
const char* kindName(Kind kind);
std::optional<Kind> kindFromName(std::string_view name);

/// True for the kinds the storage shim acts on (others pass through a
/// write/fsync site untouched, except kCrash which never returns).
bool isStorageKind(Kind kind);

struct Trigger {
  std::string site;
  Kind kind = Kind::kBudgetExhausted;
  std::uint64_t skip = 0;   ///< hits to let through before firing
  bool oneShot = false;     ///< fire exactly at hit `skip`, once
  bool fired = false;       ///< one-shot bookkeeping
  std::uint64_t arg = 0;    ///< kind payload (torn-frame/short-write bytes)
};

/// What a firing trigger injects: the kind plus its argument.
struct Fired {
  Kind kind = Kind::kBudgetExhausted;
  std::uint64_t arg = 0;
};

class Injector {
 public:
  /// Process-wide instance, configured from SYSECO_FAULT_INJECT on first
  /// access. Hit counting is serialized internally so instrumented sites
  /// may fire from worker threads; arming/resetting still belongs in
  /// single-threaded test setup.
  static Injector& instance();

  /// Arms a persistent trigger programmatically (unit tests). Replaces any
  /// existing persistent trigger on the same site.
  void arm(std::string site, Kind kind, std::uint64_t skip = 0,
           std::uint64_t arg = 0);

  /// Arms a one-shot trigger that fires exactly at the `atHit`-th hit
  /// (0-based) of `site`, then disarms itself. Appends - several schedule
  /// entries may target the same site at different hit ordinals.
  void schedule(std::string site, Kind kind, std::uint64_t atHit,
                std::uint64_t arg = 0);

  /// Removes every trigger and every site hit counter (tests must clean up
  /// after themselves).
  void reset();

  /// Records a hit at `site`; returns the armed kind when a trigger fires,
  /// nullopt when the site is unarmed or not yet (or no longer) due.
  std::optional<Kind> fire(std::string_view site);

  /// fire() plus the trigger's argument (byte offsets for torn-frame /
  /// short-write).
  std::optional<Fired> fireDetail(std::string_view site);

  /// Lock-free fast path for the unarmed case (the overwhelming majority
  /// of hits): a relaxed read of the armed-trigger count.
  bool empty() const {
    return armedCount_.load(std::memory_order_relaxed) == 0;
  }

  /// Parses the environment syntax; returns false (and arms nothing from
  /// the bad clause) on a malformed clause. `badClause`, when given,
  /// receives the first malformed clause.
  bool configure(std::string_view spec, std::string* badClause = nullptr);

  /// First malformed clause of SYSECO_FAULT_INJECT as parsed at
  /// construction; empty when the variable was unset or well-formed.
  const std::string& envBadClause() const { return envBadClause_; }

  /// Durable one-shot consumption log: when set, a firing one-shot trigger
  /// appends "<skip> <site> <kind>\n" to `path` (O_APPEND, fsync'd) BEFORE
  /// acting, so a crash-injecting schedule shared by a process tree (plan
  /// file + exec'd workers) fires each entry at most once across lives.
  /// util/fault_plan reads the log back and skips consumed entries.
  void setFireLog(std::string path);

 private:
  Injector();
  void logFired(const Trigger& t);

  mutable std::mutex mutex_;
  std::vector<Trigger> triggers_;
  /// site -> hits observed (shared by every trigger on the site).
  std::vector<std::pair<std::string, std::uint64_t>> siteHits_;
  std::string fireLogPath_;
  std::string envBadClause_;
  std::atomic<std::size_t> armedCount_{0};
};

/// Convenience: hit a site on the global injector. Zero-cost in the common
/// (unarmed) case beyond one relaxed atomic load.
inline std::optional<Kind> fire(std::string_view site) {
  Injector& inj = Injector::instance();
  if (inj.empty()) return std::nullopt;
  return inj.fire(site);
}

inline std::optional<Fired> fireDetail(std::string_view site) {
  Injector& inj = Injector::instance();
  if (inj.empty()) return std::nullopt;
  return inj.fireDetail(site);
}

// --- Fallible storage shim -------------------------------------------------
//
// Drop-in ::write / ::fsync with a named injection site consulted first.
// Storage kinds translate to the matching syscall failure; kCrash hard-
// exits (a power cut mid-append); every other kind passes through to the
// real syscall. The shim never lies about durability: a reported success
// really wrote/synced, a reported failure left at most the advertised
// prefix (torn-frame) behind.

/// ::write(fd, buf, len) through the injector at `site`. Returns the byte
/// count actually written, or -1 with errno set. kShortWrite persists a
/// non-empty prefix and returns its length (a correct caller's retry loop
/// absorbs it); kTornFrame persists `arg` bytes (clamped to len) and then
/// fails with EIO.
::ssize_t fallibleWrite(int fd, const void* buf, std::size_t len,
                        std::string_view site);

/// ::fsync(fd) through the injector at `site`. kFsyncFail returns -1 with
/// errno=EIO *without* syncing - the fsyncgate case the journal must treat
/// as fatal for the handle.
int fallibleFsync(int fd, std::string_view site);

}  // namespace syseco::fault
