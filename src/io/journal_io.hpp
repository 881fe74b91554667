#pragma once
// Run-journal record schema (JSON payloads inside util/journal.hpp frames).
//
// Four record types, written by the CLI through the engine's hooks:
//
//   run_start   - fingerprints (impl/spec CRC, options, seed) plus the
//                 failing-output count and planned processing order.
//   output      - one completed per-output rectification. Self-contained
//                 and cumulative: it carries the full working-netlist
//                 snapshot, the full tracker state and the cumulative
//                 report list, so resume needs only the *last* valid
//                 output record - corrupt earlier records cost nothing.
//   interrupted - a clean signal-initiated stop (progress marker only).
//   verdicts    - the certification oracle's per-output route verdicts for
//                 the finished run. Deliberately timing-free so the record
//                 is bit-identical across --jobs/--isolate/--resume.
//
// This layer parses and serializes payloads into plain structs; it knows
// nothing about the engine types (src/eco/resume.cpp does the mapping and
// the independent re-certification). Parsing is fuzz-hardened: arbitrary
// bytes yield kInvalidInput or a dropped-record diagnostic, never UB.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace syseco {

// --- Minimal strict JSON --------------------------------------------------

struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;        ///< every Number, lossy for huge ints
  std::int64_t integer = 0;   ///< exact when isInteger
  bool isInteger = false;
  std::string str;
  std::vector<JsonValue> items;                            ///< Array
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

  /// First member with `key`, or nullptr. Linear: journal objects are tiny.
  const JsonValue* find(const std::string& key) const;
};

/// Strict parse of one JSON document (entire input must be consumed).
/// Depth-capped so adversarial nesting cannot overflow the stack.
Result<JsonValue> parseJson(std::string_view text);

// --- Record structs -------------------------------------------------------

inline constexpr std::uint32_t kJournalSchemaVersion = 1;

struct JournalOutputReport {
  std::uint32_t output = 0;
  std::string name;
  std::string status;  ///< outputRectStatusName value
  std::string limit;   ///< statusCodeName value
  std::int64_t conflictsUsed = 0;
  std::int64_t bddNodesUsed = 0;
  double seconds = 0.0;
  std::int64_t degradeSteps = 0;
  /// Isolation-supervisor account: failed worker attempts and the last
  /// failure's cause (workerExitCauseName value). Absent keys parse as the
  /// defaults so pre-isolation journals stay resumable.
  std::int64_t attempts = 0;
  std::string exitCause = "ok";
};

struct JournalRunStart {
  std::uint32_t version = kJournalSchemaVersion;
  std::string engine;
  std::uint32_t implCrc = 0;
  std::uint32_t specCrc = 0;
  std::string optionsFingerprint;
  std::uint64_t seed = 0;
  std::uint64_t failingOutputsBefore = 0;
  std::vector<std::uint32_t> order;
};

struct JournalRewire {
  std::uint32_t gate = 0;  ///< kNullId when the sink is a primary output
  std::uint32_t port = 0;
  std::uint32_t oldNet = 0;
  std::uint32_t newNet = 0;
};

struct JournalTrackerState {
  std::uint64_t baseGates = 0;
  std::uint64_t baseNets = 0;
  std::vector<JournalRewire> rewires;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cloneCache;
};

struct JournalOutputRecord {
  std::size_t line = 0;  ///< journal.jsonl line (diagnostics)
  JournalOutputReport report;                 ///< the just-finished output
  std::vector<JournalOutputReport> reports;   ///< cumulative
  std::int64_t conflictsUsed = 0;             ///< cumulative run totals
  std::int64_t bddNodesUsed = 0;
  std::uint64_t completed = 0;
  std::uint64_t planned = 0;
  JournalTrackerState tracker;
  std::string netlistDump;  ///< Netlist::dumpRaw text of the working netlist
};

/// One certified output pair: the three route verdicts (routeVerdictName
/// strings) plus the combined judgement.
struct JournalVerdictEntry {
  std::uint32_t output = 0;
  std::string name;
  std::string sat;
  std::string bdd;
  std::string sim;
  bool certified = false;
};

struct JournalVerdicts {
  std::vector<JournalVerdictEntry> entries;
  std::uint64_t disagreements = 0;
};

/// One durable state transition of the case queue shared by the --serve
/// daemon and --batch sweeps (the queue WAL reuses the util/journal framing
/// but lives in its own directory, so these records never mix with an
/// engine run journal). Engine-type-free: src/serve owns the semantics.
struct JournalServeEvent {
  std::string event;   ///< submitted|running|done|failed|cancelled|recovered|note
  std::string job;     ///< job id (batch: manifest name); empty for notes
  std::string tenant;
  std::string format;  ///< netlist text format of the job's payloads
  /// Manifest input paths of a batch case; empty for a daemon job, whose
  /// inputs are the submitted copies in its job directory.
  std::string impl;
  std::string spec;
  std::uint64_t seed = 0;
  std::int64_t jobs = 1;        ///< worker threads requested for the job
  bool detach = false;          ///< survives the submitting connection
  bool isolate = false;         ///< run the job's workers under --isolate
  std::uint64_t bytes = 0;      ///< resident payload bytes (admission ledger)
  std::int64_t attempt = 0;     ///< dispatch ordinal for running/failed
  std::int64_t exitCode = 0;    ///< worker exit code for done
  std::string cause;            ///< failure/cancel classification
  std::string detail;
  std::string faultPlan;        ///< test hook: fault-plan text for the worker
  std::string worker;           ///< agent "host:port"; "" for the local pool
  /// Agent CaseCacheLru counters snapshotted at completion (done events of
  /// remote runs; zero for local ones).
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
};

std::string serializeServeEvent(const JournalServeEvent& r);

/// Parses one queue WAL payload (a single JSON object with type "serve").
/// Hardened like the rest of the journal parsers: arbitrary bytes yield
/// kInvalidInput, never UB.
Result<JournalServeEvent> parseServeEvent(std::string_view payload);

/// Every intelligible record recovered from a journal directory.
struct JournalContents {
  bool hasRunStart = false;
  JournalRunStart runStart;
  std::vector<JournalOutputRecord> outputs;
  bool hasVerdicts = false;  ///< a verdicts record was present (last wins)
  JournalVerdicts verdicts;
  bool interrupted = false;  ///< an interrupted marker was present
  /// Frame-level and payload-level drop notes, line-accurate.
  std::vector<std::string> diagnostics;
};

/// Scans and parses `dir`'s journal. Unparseable payloads are dropped with
/// a diagnostic (like corrupt frames); only unreadable I/O fails.
Result<JournalContents> readJournal(const std::string& dir);

// --- Serialization (one line of JSON each, newline-free) ------------------

std::string serializeRunStart(const JournalRunStart& r);
std::string serializeOutputRecord(const JournalOutputRecord& r);
std::string serializeVerdicts(const JournalVerdicts& r);
std::string serializeInterrupted(std::uint64_t completed,
                                 std::uint64_t planned);

}  // namespace syseco
