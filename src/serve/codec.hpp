#pragma once
// ECO-as-a-service session protocol payloads (util/ipc.hpp frame types
// kTypeServe*), carried over the same SEF1-framed TCP transport the worker
// fleet uses (util/socket.hpp).
//
// A client submits one whole rectification job - both netlist texts, the
// search-shaping knobs, and delivery preferences - and then polls the
// daemon for the job's durable queue state. Replies for finished jobs carry
// the rectified netlist and run report inline, so a remote client needs no
// shared filesystem with the daemon.
//
// Payloads are JSON (the journal_io idiom): the fuzz-hardened parseJson
// guards the wire, and every decoder treats arbitrary bytes as
// kInvalidInput, never UB. A daemon must survive any byte stream a client
// can send; a client must survive any byte stream a daemon can send.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace syseco::serve {

/// Client -> daemon: one whole rectification job. The netlists travel as
/// file *text* in one of the CLI's formats; the daemon re-validates them
/// with the checked parsers at admission, so a malformed submission is
/// rejected up front instead of failing the job later.
struct SubmitRequest {
  std::string tenant = "default";
  std::string format = "blif";  ///< blif | v | netlist
  std::string implText;
  std::string specText;
  std::uint64_t seed = 1;
  std::int64_t jobs = 1;   ///< worker threads for the job's engine run
  bool isolate = false;    ///< run the job's workers under --isolate
  bool detach = false;     ///< job survives the submitting connection
  /// Test hook: fault-plan text (util/fault_plan.hpp) the job's worker
  /// runs under (empty = none). How the crash-recovery and self-healing
  /// tests make a job die deterministically mid-run.
  std::string faultPlan;
};

std::string encodeSubmit(const SubmitRequest& r);
Result<SubmitRequest> decodeSubmit(std::string_view payload);

/// Daemon -> client: the job was admitted and durably queued.
struct Accepted {
  std::string job;  ///< daemon-assigned id, stable across daemon restarts
};

std::string encodeAccepted(const Accepted& r);
Result<Accepted> decodeAccepted(std::string_view payload);

/// Daemon -> client: admission control shed the job. `reason` is a stable
/// token automation can switch on; `detail` is human diagnostics.
/// Reasons: queue-full | tenant-quota | memory-watermark | bad-request |
/// shutting-down.
struct Rejected {
  std::string reason;
  std::string detail;
};

std::string encodeRejected(const Rejected& r);
Result<Rejected> decodeRejected(std::string_view payload);

/// Client -> daemon: poll one job's state (kTypeServeStatus) or request
/// its cancellation (kTypeServeCancel). Same payload shape for both; the
/// frame type carries the verb.
struct JobRef {
  std::string job;
};

std::string encodeJobRef(const JobRef& r);
Result<JobRef> decodeJobRef(std::string_view payload);

/// Daemon -> client: one job's durable queue state.
/// state: queued | running | done | failed | cancelled | unknown.
struct JobState {
  std::string job;
  std::string state;
  std::int64_t attempt = 0;   ///< dispatch ordinal (1 = first attempt)
  std::int64_t exitCode = 0;  ///< engine exit code when done
  std::string cause;          ///< failure/cancel classification
  std::string detail;
  /// Delivered inline when state == done (and reportText also on failed
  /// runs that got far enough to write a report): the job's run report
  /// JSON and the rectified netlist text. Empty otherwise.
  std::string reportText;
  std::string outText;
};

std::string encodeJobState(const JobState& r);
Result<JobState> decodeJobState(std::string_view payload);

}  // namespace syseco::serve
