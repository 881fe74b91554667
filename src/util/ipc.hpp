#pragma once
// Length-prefixed, crc32-framed IPC messages between the isolation
// supervisor and its forked workers (util/subprocess.hpp).
//
// Wire format (little-endian u32 fields, 16-byte header):
//
//   magic "SEF1" | type | payload length | crc32(payload) | payload bytes
//
// One pipe carries exactly one frame per direction: the supervisor writes a
// task request and closes; the worker writes a result and exits. A frame is
// therefore decoded from the *complete* byte stream, and the decoder is
// hardened the same way the run-journal parser is: truncated, bit-flipped,
// oversized or trailing-garbage input yields a Status, never UB - a worker
// is an untrusted job, and a crashed worker's half-written frame must read
// as a classified garbage-ipc failure, not as supervisor corruption.
//
// Payloads are JSON documents (reusing the journal_io serialization idiom)
// so the same fuzz-hardened parser guards the semantic layer too.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace syseco::ipc {

inline constexpr char kMagic[4] = {'S', 'E', 'F', '1'};
inline constexpr std::size_t kHeaderBytes = 16;
/// Frames carry netlist snapshots of patch fragments; cap well above any
/// realistic size so a corrupt length field cannot drive allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB

/// Message types. Values are part of the wire format.
inline constexpr std::uint32_t kTypeTaskRequest = 1;
inline constexpr std::uint32_t kTypeWorkerResult = 2;
// Agent transport (util/socket.hpp): a persistent TCP stream carries many
// frames per direction, so these travel through the incremental decoder
// below rather than the one-shot decodeFrame contract. Types 3 and 7 (the
// retired per-output task and result) are not reused.
inline constexpr std::uint32_t kTypeFleetNeedCase = 4;   ///< agent -> supervisor
inline constexpr std::uint32_t kTypeFleetCase = 5;       ///< supervisor -> agent
inline constexpr std::uint32_t kTypeFleetHeartbeat = 6;  ///< agent -> supervisor
inline constexpr std::uint32_t kTypeFleetFailure = 8;    ///< agent -> supervisor
// ECO-as-a-service session protocol (src/serve/): a client submits whole
// rectification jobs to the resident `--serve` daemon and polls their
// durable queue state over the same SEF1 stream framing.
inline constexpr std::uint32_t kTypeServeSubmit = 9;     ///< client -> daemon
inline constexpr std::uint32_t kTypeServeAccepted = 10;  ///< daemon -> client
inline constexpr std::uint32_t kTypeServeRejected = 11;  ///< daemon -> client
inline constexpr std::uint32_t kTypeServeStatus = 12;    ///< client -> daemon
inline constexpr std::uint32_t kTypeServeJobState = 13;  ///< daemon -> client
inline constexpr std::uint32_t kTypeServeCancel = 14;    ///< client -> daemon
// Whole-case dispatch (src/serve/scheduler.hpp): the supervisor dispatches
// an entire rectification case to an agent; the agent streams heartbeats and
// answers with one epoch-stamped result envelope carrying the full report
// JSON, verdict records and the patched netlist.
inline constexpr std::uint32_t kTypeFleetCaseTask = 15;    ///< supervisor -> agent
inline constexpr std::uint32_t kTypeFleetCaseResult = 16;  ///< agent -> supervisor

struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

/// Serializes one frame (header + payload).
std::string encodeFrame(std::uint32_t type, std::string_view payload);

/// Decodes exactly one frame from the complete stream `bytes`. Rejects
/// short headers, bad magic, unknown types, oversized or truncated
/// payloads, trailing bytes and checksum mismatches with kInvalidInput.
Result<Frame> decodeFrame(std::string_view bytes);

/// Stream decode, step 1: the total on-wire size of the frame that starts
/// at the front of `bytes`, once its header is fully present. Returns 0
/// while fewer bytes than the length field's offset have arrived ("need
/// more"); kInvalidInput as soon as the prefix cannot open a valid frame
/// (bad magic, unknown type, oversized length) - a stream gone bad is
/// detected before the payload lands, not after.
Result<std::size_t> frameBytesNeeded(std::string_view bytes);

/// Stream decode, step 2: consumes exactly one complete frame from the
/// front of *stream, validating it like decodeFrame. Returns the frame, or
/// an empty optional while the stream holds only a partial frame, or
/// kInvalidInput when the front is not a frame. On success the consumed
/// bytes are erased from *stream.
Result<std::optional<Frame>> extractFrame(std::string* stream);

}  // namespace syseco::ipc
