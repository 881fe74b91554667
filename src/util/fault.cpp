#include "util/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include <fcntl.h>
#include <unistd.h>

namespace syseco::fault {

const char* kindName(Kind kind) {
  switch (kind) {
    case Kind::kBudgetExhausted: return "budget";
    case Kind::kDeadlineExceeded: return "deadline";
    case Kind::kBddBlowup: return "bdd";
    case Kind::kAllocFailure: return "alloc";
    case Kind::kCrash: return "crash";
    case Kind::kOom: return "oom";
    case Kind::kHang: return "hang";
    case Kind::kGarbageIpc: return "garbage-ipc";
    case Kind::kWrongPatch: return "wrong-patch";
    case Kind::kNetTruncate: return "net-truncate";
    case Kind::kNetReset: return "net-reset";
    case Kind::kNetDelay: return "net-delay";
    case Kind::kEnospc: return "enospc";
    case Kind::kEio: return "eio";
    case Kind::kShortWrite: return "short-write";
    case Kind::kFsyncFail: return "fsync-fail";
    case Kind::kTornFrame: return "torn-frame";
  }
  return "unknown";
}

std::optional<Kind> kindFromName(std::string_view name) {
  if (name == "budget") return Kind::kBudgetExhausted;
  if (name == "deadline") return Kind::kDeadlineExceeded;
  if (name == "bdd") return Kind::kBddBlowup;
  if (name == "alloc") return Kind::kAllocFailure;
  if (name == "crash") return Kind::kCrash;
  if (name == "oom") return Kind::kOom;
  if (name == "hang") return Kind::kHang;
  if (name == "garbage-ipc") return Kind::kGarbageIpc;
  if (name == "wrong-patch") return Kind::kWrongPatch;
  if (name == "net-truncate") return Kind::kNetTruncate;
  if (name == "net-reset") return Kind::kNetReset;
  if (name == "net-delay") return Kind::kNetDelay;
  if (name == "enospc") return Kind::kEnospc;
  if (name == "eio") return Kind::kEio;
  if (name == "short-write") return Kind::kShortWrite;
  if (name == "fsync-fail") return Kind::kFsyncFail;
  if (name == "torn-frame") return Kind::kTornFrame;
  return std::nullopt;
}

bool isStorageKind(Kind kind) {
  switch (kind) {
    case Kind::kEnospc:
    case Kind::kEio:
    case Kind::kShortWrite:
    case Kind::kFsyncFail:
    case Kind::kTornFrame:
      return true;
    default:
      return false;
  }
}

Injector& Injector::instance() {
  static Injector injector;
  return injector;
}

Injector::Injector() {
  if (const char* env = std::getenv("SYSECO_FAULT_INJECT"))
    configure(env, &envBadClause_);
}

void Injector::arm(std::string site, Kind kind, std::uint64_t skip,
                   std::uint64_t arg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Trigger& t : triggers_) {
    if (!t.oneShot && t.site == site) {
      t.kind = kind;
      t.skip = skip;
      t.arg = arg;
      return;
    }
  }
  Trigger t;
  t.site = std::move(site);
  t.kind = kind;
  t.skip = skip;
  t.arg = arg;
  triggers_.push_back(std::move(t));
  armedCount_.fetch_add(1, std::memory_order_relaxed);
}

void Injector::schedule(std::string site, Kind kind, std::uint64_t atHit,
                        std::uint64_t arg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Trigger t;
  t.site = std::move(site);
  t.kind = kind;
  t.skip = atHit;
  t.oneShot = true;
  t.arg = arg;
  triggers_.push_back(std::move(t));
  armedCount_.fetch_add(1, std::memory_order_relaxed);
}

void Injector::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  triggers_.clear();
  siteHits_.clear();
  fireLogPath_.clear();
  armedCount_.store(0, std::memory_order_relaxed);
}

void Injector::setFireLog(std::string path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fireLogPath_ = std::move(path);
}

void Injector::logFired(const Trigger& t) {
  if (fireLogPath_.empty()) return;
  const int fd = ::open(fireLogPath_.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;
  std::string line = std::to_string(t.skip);
  line += ' ';
  line += t.site;
  line += ' ';
  line += kindName(t.kind);
  line += '\n';
  std::size_t done = 0;
  while (done < line.size()) {
    const ::ssize_t got = ::write(fd, line.data() + done, line.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      break;  // best effort: the log only narrows duplicate firings
    }
    done += static_cast<std::size_t>(got);
  }
  ::fsync(fd);
  ::close(fd);
}

std::optional<Kind> Injector::fire(std::string_view site) {
  const std::optional<Fired> fired = fireDetail(site);
  if (!fired) return std::nullopt;
  return fired->kind;
}

std::optional<Fired> Injector::fireDetail(std::string_view site) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t* counter = nullptr;
  for (auto& [name, hits] : siteHits_) {
    if (name == site) {
      counter = &hits;
      break;
    }
  }
  if (counter == nullptr) {
    siteHits_.emplace_back(std::string(site), 0);
    counter = &siteHits_.back().second;
  }
  const std::uint64_t hit = (*counter)++;

  Trigger* due = nullptr;
  for (Trigger& t : triggers_) {
    if (t.site != site) continue;
    if (t.oneShot) {
      // One-shots fire exactly at their ordinal; a schedule with several
      // entries on one site sees each fire once. They beat a persistent
      // trigger due at the same hit - the more specific intent wins.
      if (!t.fired && hit == t.skip) {
        due = &t;
        break;
      }
    } else if (hit >= t.skip && due == nullptr) {
      due = &t;
    }
  }
  if (due == nullptr) return std::nullopt;
  if (due->oneShot) {
    due->fired = true;
    armedCount_.fetch_sub(1, std::memory_order_relaxed);
    // Write-ahead: record consumption BEFORE acting, so even a kCrash
    // firing is visible to the next process loading the same plan.
    logFired(*due);
  }
  // A crash never returns to the caller: _Exit skips destructors,
  // atexit handlers and stream flushes, like the SIGKILL it simulates.
  if (due->kind == Kind::kCrash) std::_Exit(kCrashExitCode);
  return Fired{due->kind, due->arg};
}

bool Injector::configure(std::string_view spec, std::string* badClause) {
  bool allOk = true;
  auto reject = [&](std::string_view clause) {
    if (allOk && badClause != nullptr) *badClause = std::string(clause);
    allOk = false;
  };
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;

    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      reject(clause);
      continue;
    }
    std::string_view kindPart = clause.substr(eq + 1);
    std::uint64_t skip = 0;
    if (const std::size_t at = kindPart.find('@');
        at != std::string_view::npos) {
      const std::string_view skipPart = kindPart.substr(at + 1);
      kindPart = kindPart.substr(0, at);
      if (skipPart.empty()) {
        reject(clause);
        continue;
      }
      skip = 0;
      bool digits = true;
      for (char c : skipPart) {
        if (c < '0' || c > '9') {
          digits = false;
          break;
        }
        skip = skip * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (!digits) {
        reject(clause);
        continue;
      }
    }
    const std::optional<Kind> kind = kindFromName(kindPart);
    if (!kind) {
      reject(clause);
      continue;
    }
    arm(std::string(clause.substr(0, eq)), *kind, skip);
  }
  return allOk;
}

namespace {

/// Writes up to `len` bytes for real, absorbing EINTR. Returns the byte
/// count that reached the fd (0 on an immediate hard failure, with errno
/// left from ::write).
std::size_t writePrefix(int fd, const char* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ::ssize_t got = ::write(fd, buf + done, len - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    done += static_cast<std::size_t>(got);
  }
  return done;
}

}  // namespace

::ssize_t fallibleWrite(int fd, const void* buf, std::size_t len,
                        std::string_view site) {
  Injector& inj = Injector::instance();
  if (inj.empty()) return ::write(fd, buf, len);
  const std::optional<Fired> fired = inj.fireDetail(site);
  if (!fired) return ::write(fd, buf, len);
  const char* bytes = static_cast<const char*>(buf);
  switch (fired->kind) {
    case Kind::kEnospc:
      errno = ENOSPC;
      return -1;
    case Kind::kEio:
      errno = EIO;
      return -1;
    case Kind::kShortWrite: {
      // A genuine short write: a non-empty prefix really lands and its
      // length is reported. At least one byte, so a persistent trigger
      // cannot starve a correct caller's retry loop.
      if (len == 0) return 0;
      const std::size_t want = static_cast<std::size_t>(
          std::clamp<std::uint64_t>(fired->arg != 0 ? fired->arg : len / 2,
                                    1, len));
      const std::size_t done = writePrefix(fd, bytes, want);
      if (done == 0) return -1;  // errno from the real write
      return static_cast<::ssize_t>(done);
    }
    case Kind::kTornFrame: {
      // Power cut mid-append: a prefix reaches the file, then the device
      // goes away. The caller sees a hard failure; the torn tail is what
      // fold-on-open must truncate back.
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(fired->arg != 0 ? fired->arg : len / 2,
                                  len));
      writePrefix(fd, bytes, want);
      errno = EIO;
      return -1;
    }
    default:
      // Non-write kinds (including fsync-fail) pass through untouched;
      // kCrash never reaches here (handled centrally in fireDetail).
      return ::write(fd, buf, len);
  }
}

int fallibleFsync(int fd, std::string_view site) {
  Injector& inj = Injector::instance();
  if (inj.empty()) return ::fsync(fd);
  const std::optional<Fired> fired = inj.fireDetail(site);
  if (!fired) return ::fsync(fd);
  switch (fired->kind) {
    case Kind::kFsyncFail:
    case Kind::kEio:
      errno = EIO;
      return -1;
    case Kind::kEnospc:
      errno = ENOSPC;
      return -1;
    default:
      return ::fsync(fd);
  }
}

}  // namespace syseco::fault
