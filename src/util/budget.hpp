#pragma once
// The resource governor: one object combining the engine's three resource
// dimensions - a wall-clock deadline, a SAT conflict budget and a BDD node
// budget - behind a cheap cooperative polling interface.
//
// The paper's engine is resource-constrained by construction (validation
// runs under a conflict budget, §5.1) and complete by fallback
// (Proposition 1): nothing the governor reports is fatal. Call sites poll
// checkpoint() at natural unit-of-work boundaries (a SAT conflict batch, a
// block of fresh BDD nodes); a non-ok Status propagates outward to a phase
// boundary where the engine degrades - shrinks the candidate space, skips
// to the next output, or rewires the output to its revised-cone clone.
//
// Guards are hierarchical: slice(n) carves a child entitled to 1/n of the
// parent's *remaining* resources, so each failing output gets a fair share
// of whatever is left and one pathological output cannot starve the rest.
// Consumption charged to a child is also charged to every ancestor, and a
// tripped ancestor trips every descendant at its next checkpoint.
//
// Fault injection: checkpoint(site) consults util/fault.hpp when a site tag
// is given, so tests can force either exhaustion code at any polling site
// (e.g. the fault-plan line `from 0 syseco.refine budget`, or `deadline`).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/fault.hpp"
#include "util/status.hpp"

namespace syseco {

class ResourceGuard {
 public:
  struct Limits {
    double deadlineSeconds = 0.0;      ///< <= 0: no deadline
    std::int64_t conflictBudget = 0;   ///< <= 0: unlimited
    std::int64_t bddNodeBudget = 0;    ///< <= 0: unlimited
  };

  /// Unlimited guard (never trips on its own; still honors fault
  /// injection and ancestor trips).
  ResourceGuard() = default;

  explicit ResourceGuard(const Limits& limits) {
    if (limits.deadlineSeconds > 0.0) {
      hasDeadline_ = true;
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         limits.deadlineSeconds));
    }
    conflictLimit_ = limits.conflictBudget > 0 ? limits.conflictBudget : -1;
    bddNodeLimit_ = limits.bddNodeBudget > 0 ? limits.bddNodeBudget : -1;
  }

  // Children hold a pointer to their parent, so guards are not copyable
  // and only move-constructible (needed to return from slice()); create
  // children in a scope the parent outlives and don't move a guard that
  // already has children. The move is hand-written because the spend
  // counters are atomics (several workers may charge one guard chain
  // concurrently); moving is a single-threaded setup-time operation.
  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;
  ResourceGuard(ResourceGuard&& other) noexcept
      : parent_(other.parent_),
        hasDeadline_(other.hasDeadline_),
        deadline_(other.deadline_),
        conflictLimit_(other.conflictLimit_),
        bddNodeLimit_(other.bddNodeLimit_),
        conflictsUsed_(other.conflictsUsed_.load(std::memory_order_relaxed)),
        bddNodesUsed_(other.bddNodesUsed_.load(std::memory_order_relaxed)),
        tripped_(other.tripped_.load(std::memory_order_relaxed)) {}
  ResourceGuard& operator=(ResourceGuard&&) = delete;

  /// Child guard entitled to 1/shares of this guard's remaining budgets
  /// and all of its remaining time (a deadline is a point in time, not a
  /// quantity, so children inherit it; use sliceSeconds to also carve the
  /// clock). shares == 0 behaves as 1.
  ResourceGuard slice(std::size_t shares) const {
    return sliceSeconds(shares, 0.0);
  }

  /// slice() plus a per-child wall-clock allowance: the child's deadline
  /// is min(parent deadline, now + maxSeconds) when maxSeconds > 0.
  ResourceGuard sliceSeconds(std::size_t shares, double maxSeconds) const {
    if (shares == 0) shares = 1;
    ResourceGuard child;
    child.parent_ = this;
    child.hasDeadline_ = hasDeadline_;
    child.deadline_ = deadline_;
    if (maxSeconds > 0.0) {
      const TimePoint cap =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(maxSeconds));
      if (!child.hasDeadline_ || cap < child.deadline_) {
        child.hasDeadline_ = true;
        child.deadline_ = cap;
      }
    }
    const std::int64_t conflictsLeft = remainingConflicts();
    if (conflictsLeft >= 0)
      child.conflictLimit_ =
          conflictsLeft / static_cast<std::int64_t>(shares) + 1;
    const std::int64_t nodesLeft = remainingBddNodes();
    if (nodesLeft >= 0)
      child.bddNodeLimit_ = nodesLeft / static_cast<std::int64_t>(shares) + 1;
    return child;
  }

  // --- Consumption ----------------------------------------------------------

  // Charges walk the parent chain with relaxed atomic adds: workers on
  // different threads may share an ancestor, and the counters are plain
  // monotone tallies polled cooperatively (no ordering is needed beyond
  // the eventual-visibility the polls tolerate by design).
  void chargeConflicts(std::int64_t n) {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      g->conflictsUsed_.fetch_add(n, std::memory_order_relaxed);
  }
  void chargeBddNodes(std::int64_t n) {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      g->bddNodesUsed_.fetch_add(n, std::memory_order_relaxed);
  }

  // --- Polling --------------------------------------------------------------

  /// Cooperative poll. Returns ok while every budget (of this guard and
  /// all ancestors) holds; otherwise a budget-exhausted / deadline-exceeded
  /// Status naming `site`. The first trip latches: later checkpoints keep
  /// returning the same code, so call sites may poll freely.
  Status checkpoint(const char* site = nullptr) {
    if (site != nullptr) {
      if (const auto kind = fault::fire(site)) {
        if (*kind == fault::Kind::kBudgetExhausted)
          tripped_ = StatusCode::kBudgetExhausted;
        else if (*kind == fault::Kind::kDeadlineExceeded)
          tripped_ = StatusCode::kDeadlineExceeded;
        // kBddBlowup / kAllocFailure are handled at their own sites.
      }
    }
    if (tripped_ == StatusCode::kOk) refresh();
    if (tripped_ == StatusCode::kOk) return Status::ok();
    return tripStatus(site);
  }

  /// Non-latching view of the current state (no fault-injection hit).
  bool exhausted() const {
    if (tripped_ != StatusCode::kOk) return true;
    const_cast<ResourceGuard*>(this)->refresh();
    return tripped_ != StatusCode::kOk;
  }
  StatusCode trippedCode() const { return tripped_; }

  // --- Introspection --------------------------------------------------------

  /// Remaining conflicts across this guard and its ancestors; -1 when
  /// unlimited everywhere on the chain.
  std::int64_t remainingConflicts() const {
    std::int64_t best = -1;
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      if (g->conflictLimit_ < 0) continue;
      const std::int64_t left =
          g->conflictLimit_ > g->conflictsUsed_
              ? g->conflictLimit_ - g->conflictsUsed_
              : 0;
      best = best < 0 ? left : std::min(best, left);
    }
    return best;
  }

  std::int64_t remainingBddNodes() const {
    std::int64_t best = -1;
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      if (g->bddNodeLimit_ < 0) continue;
      const std::int64_t left = g->bddNodeLimit_ > g->bddNodesUsed_
                                    ? g->bddNodeLimit_ - g->bddNodesUsed_
                                    : 0;
      best = best < 0 ? left : std::min(best, left);
    }
    return best;
  }

  /// Seconds until the nearest deadline on the chain; negative once
  /// expired; a large sentinel (1e18) when no deadline is set.
  double remainingSeconds() const {
    bool any = false;
    TimePoint nearest{};
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      if (!g->hasDeadline_) continue;
      if (!any || g->deadline_ < nearest) nearest = g->deadline_;
      any = true;
    }
    if (!any) return 1e18;
    return std::chrono::duration<double>(nearest - Clock::now()).count();
  }

  std::int64_t conflictsUsed() const { return conflictsUsed_; }
  std::int64_t bddNodesUsed() const { return bddNodesUsed_; }

  /// True when any limit is set on this guard or an ancestor - callers use
  /// this to skip slicing entirely on unlimited runs.
  bool limited() const {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      if (g->hasDeadline_ || g->conflictLimit_ >= 0 || g->bddNodeLimit_ >= 0)
        return true;
    return false;
  }

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  void refresh() {
    for (const ResourceGuard* g = this; g; g = g->parent_) {
      const StatusCode code = g->tripped_.load(std::memory_order_relaxed);
      if (code != StatusCode::kOk) {
        tripped_.store(code, std::memory_order_relaxed);
        return;
      }
      if (g->conflictLimit_ >= 0 && g->conflictsUsed_ >= g->conflictLimit_) {
        tripped_ = StatusCode::kBudgetExhausted;
        return;
      }
      if (g->bddNodeLimit_ >= 0 && g->bddNodesUsed_ >= g->bddNodeLimit_) {
        tripped_ = StatusCode::kBudgetExhausted;
        return;
      }
    }
    if (hasDeadlineOnChain() && remainingSeconds() <= 0.0)
      tripped_ = StatusCode::kDeadlineExceeded;
  }

  bool hasDeadlineOnChain() const {
    for (const ResourceGuard* g = this; g; g = g->parent_)
      if (g->hasDeadline_) return true;
    return false;
  }

  Status tripStatus(const char* site) const {
    std::string where = site ? std::string(" at ") + site : std::string();
    if (tripped_ == StatusCode::kDeadlineExceeded)
      return Status::deadlineExceeded("wall-clock deadline passed" + where);
    return Status::budgetExhausted("resource budget exhausted" + where);
  }

  const ResourceGuard* parent_ = nullptr;
  bool hasDeadline_ = false;
  TimePoint deadline_{};
  std::int64_t conflictLimit_ = -1;  ///< -1: unlimited
  std::int64_t bddNodeLimit_ = -1;
  // Atomic so that worker threads can charge a shared ancestor while the
  // owner polls; everything else on a guard is set up before sharing.
  mutable std::atomic<std::int64_t> conflictsUsed_{0};
  mutable std::atomic<std::int64_t> bddNodesUsed_{0};
  std::atomic<StatusCode> tripped_{StatusCode::kOk};
};

}  // namespace syseco
