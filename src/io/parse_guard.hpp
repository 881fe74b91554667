#pragma once
// Internal glue for the Status-returning ("checked") reader variants: runs
// a throwing parser and folds every escape hatch into a Status - malformed
// input becomes kInvalidInput with the parser's file/line diagnostic,
// allocation failure becomes kInternal, and a StatusError passes its
// payload through unchanged. Also hosts the parsers' fault-injection entry
// points (sites "io.blif", "io.netlist", "io.verilog"; e.g. the fault-plan
// line `from 0 io.blif alloc`).

#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/fault.hpp"
#include "util/status.hpp"

namespace syseco::io_detail {

/// Fault-injection hook at a parser entry point: an `alloc` trigger makes
/// the parse behave as if an allocation failed mid-way, a `budget` or
/// `deadline` trigger as if a governed caller's limit tripped.
inline void hitParseSite(const char* site) {
  if (const auto kind = fault::fire(site)) {
    switch (*kind) {
      case fault::Kind::kAllocFailure:
        throw std::bad_alloc();
      case fault::Kind::kBudgetExhausted:
        throw StatusError(Status::budgetExhausted(
            std::string("fault injected at ") + site));
      case fault::Kind::kDeadlineExceeded:
        throw StatusError(Status::deadlineExceeded(
            std::string("fault injected at ") + site));
      case fault::Kind::kBddBlowup:
        break;  // meaningless in a parser; ignore
      case fault::Kind::kCrash:
        break;  // unreachable: Injector::fire exits before returning
    }
  }
}

template <typename Fn>
auto guardedParse(const char* what, Fn&& fn)
    -> Result<decltype(fn())> {
  try {
    return fn();
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::internal(std::string(what) +
                            ": allocation failed while parsing");
  } catch (const std::exception& e) {
    return Status::invalidInput(e.what());
  }
}

/// Prefixes a path to a non-ok status message so file-level wrappers report
/// which file was bad.
template <typename T>
Result<T> withPath(const std::string& path, Result<T> r) {
  if (r.isOk()) return r;
  return Status(r.status().code(), path + ": " + r.status().message());
}

}  // namespace syseco::io_detail
