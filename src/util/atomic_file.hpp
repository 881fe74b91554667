#pragma once
// Crash-safe file replacement: write to a temporary sibling, fsync it, then
// rename() over the destination. A reader (or a resumed run) either sees
// the complete old content or the complete new content - never a torn
// write. Used for the CLI's --report output and the journal commit marker.

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace syseco {

/// Atomically replaces `path` with `content`. The temporary file lives in
/// the same directory (rename must not cross filesystems) and is removed
/// on failure. The data and the directory entry are both fsync'd before
/// returning ok, so the replacement survives power loss.
///
/// `site` names the fault-injection site prefix for the staged write:
/// the shim consults `<site>.write` and `<site>.fsync` (util/fault), so
/// chaos schedules can fail any atomic replacement mid-flight (e.g. the
/// fault-plan line `at 0 atomic.fsync fsync-fail`). On any
/// failure - injected or real - the staging file is unlinked and `path`
/// still holds its previous complete content.
Status writeFileAtomic(const std::string& path, std::string_view content,
                       std::string_view site = "atomic");

/// fsync() on a directory, making a previous rename/create in it durable.
/// Best-effort on filesystems that reject directory fsync.
Status syncDirectory(const std::string& dir);

/// Directory part of `path` ("." when the path has no separator).
std::string parentDirectory(const std::string& path);

/// Unlinks leftover writeFileAtomic staging files ("<name>.tmp.<pid>") in
/// `dir`. A crash between create and rename legitimately strands one;
/// recovery paths (journal/WAL open) sweep so that staging garbage never
/// accumulates and the chaos harness can treat a surviving tmp file as a
/// leak. Returns the number of files removed; a missing directory is 0.
std::size_t removeStaleStaging(const std::string& dir);

}  // namespace syseco
