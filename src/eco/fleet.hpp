#pragma once
// The --serve-worker agent: the remote half of whole-case dispatch (the
// supervisor half is serve/scheduler.cpp's CaseDispatcher, driven by
// --batch and the --serve daemon).
//
// An agent listens on a TCP port and serves one supervisor connection at a
// time. Over that connection it receives SEF1-framed whole-case tasks
// (kTypeFleetCaseTask), fetches the content-addressed case payload once per
// crc32 key, runs the full engine on the resident case - same seed, same
// options, agent-local --jobs - heartbeats while computing so the
// supervisor's lease stays renewed, and answers with one epoch-stamped
// envelope carrying the run report, the oracle's verdicts record and the
// patched netlist, so a batch drains to artifacts bit-identical to running
// every case locally. An agent must never die on a bad task: compute-side
// exceptions become failure frames, and transport errors just drop the
// connection (the supervisor classifies the break).
//
// Fault-injection sites "fleet.agent.case" and "fleet.agent.case.<name>"
// make the agent misbehave on the wire deterministically (net-truncate /
// net-reset / net-delay / hang and the isolation kinds), so the
// dispatcher's network failure taxonomy is testable end to end on a
// loopback fleet.

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <vector>

#include "eco/isolate.hpp"
#include "netlist/analysis.hpp"
#include "util/status.hpp"

namespace syseco {

/// The agent's resident-case store: a small crc32-keyed LRU of decoded
/// case payloads with their shared read-only analyses. One slot was enough
/// when every supervisor run used exactly one case; a --serve daemon
/// dispatching jobs across a handful of netlist families would thrash the
/// upload with one slot, so the agent now keeps `slots` families resident
/// and evicts in least-recently-used order. Entries live in a std::list so
/// a found/inserted entry's address stays stable while a task computes
/// against its analyses.
class CaseCacheLru {
 public:
  struct Entry {
    std::uint32_t crc = 0;
    FleetCase c;
    std::unique_ptr<NetlistAnalysis> baseAnalysis;
    std::unique_ptr<NetlistAnalysis> specAnalysis;
  };

  /// Lifetime counters: how well crc32 content-addressing amortizes case
  /// uploads across tasks, retries and whole-case batch dispatch. Surfaced
  /// in the agent's log lines and shipped back in every case-result
  /// envelope so batch reports can aggregate them fleet-wide.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  explicit CaseCacheLru(std::size_t slots) : slots_(slots ? slots : 1) {}

  /// Resident lookup; marks the entry most-recently used. Null on a miss.
  /// Counts one hit or one miss.
  Entry* find(std::uint32_t crc);

  /// Makes `c` resident (building its analyses), evicting the
  /// least-recently-used entry when every slot is taken. Returns the
  /// resident entry, already marked most-recently used. Counts evictions
  /// but neither hits nor misses (the preceding find() already did).
  Entry* insert(std::uint32_t crc, FleetCase c);

  std::size_t size() const { return entries_.size(); }
  std::size_t slots() const { return slots_; }
  const Stats& stats() const { return stats_; }

  /// Resident keys, most-recently used first (the eviction-order test
  /// surface; also what a status probe would report).
  std::vector<std::uint32_t> keysMruFirst() const;

 private:
  /// find() without the hit/miss accounting (insert's same-key refresh).
  Entry* lookup(std::uint32_t crc);

  std::size_t slots_ = 1;
  std::list<Entry> entries_;  ///< front = most recently used
  Stats stats_;
};

struct FleetAgentOptions {
  std::uint16_t port = 0;  ///< 0: kernel-assigned (see boundHook)
  bool serveOnce = false;  ///< exit after the first connection closes
  bool verbose = false;
  /// Resident-case LRU slots (netlist families kept decoded+analyzed).
  std::size_t cacheSlots = 4;
  /// Polled between accepts and frames; a set flag shuts the agent down
  /// cleanly (the CLI wires SIGINT/SIGTERM here).
  std::atomic<bool>* stop = nullptr;
  /// Called once with the actually-bound listening port (meaningful with
  /// port = 0; the CLI's --port-file uses it).
  std::function<void(std::uint16_t)> boundHook;
};

/// Runs the agent loop until `stop` is set (or, with serveOnce, until the
/// first supervisor connection closes). Returns non-ok only for setup
/// failures (the port cannot be bound); per-connection and per-task
/// failures are contained and served back to the supervisor.
Status runWorkerAgent(const FleetAgentOptions& options);

}  // namespace syseco
