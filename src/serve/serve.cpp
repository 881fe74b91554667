#include "serve/serve.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/fault_plan.hpp"
#include "util/io_retry.hpp"
#include "util/ipc.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace syseco::serve {

namespace {

constexpr int kTickMs = 50;

/// One client session: its receive buffer and the non-detached jobs whose
/// lifetime is bound to it.
struct Conn {
  int fd = -1;
  std::string rx;
  std::vector<std::string> ownedJobs;
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Admission-time payload validation with the checked parsers: a job that
/// cannot parse must be rejected at the door, not dispatched to fail.
Status validatePayload(const SubmitRequest& r) {
  if (Result<fault::FaultPlan> plan = fault::parseFaultPlan(r.faultPlan);
      !plan.isOk())
    return plan.status();
  const std::pair<const char*, const std::string*> texts[] = {
      {"impl", &r.implText}, {"spec", &r.specText}};
  for (const auto& [name, text] : texts) {
    std::istringstream is(*text);
    Result<Netlist> parsed = readNetlistAs(r.format, is);
    if (!parsed.isOk())
      return Status::invalidInput(std::string(name) + " netlist: " +
                                  parsed.status().message());
  }
  return Status::ok();
}

class Daemon {
 public:
  Daemon(const ServeOptions& opt, JobQueue queue)
      : opt_(opt), queue_(std::move(queue)), scheduler_(opt, queue_, "serve") {}

  Status run();

 private:
  bool stopped() const {
    return opt_.stop != nullptr &&
           opt_.stop->load(std::memory_order_relaxed);
  }

  void log(const std::string& msg) {
    if (opt_.verbose)
      std::fprintf(stderr, "[syseco-serve] %s\n", msg.c_str());
  }

  /// Journaled warning: visible in the WAL (note record) and on stderr.
  void warn(const std::string& msg) {
    std::fprintf(stderr, "[syseco-serve] warning: %s\n", msg.c_str());
    queue_.note("warning: " + msg);
  }

  void acceptClients(int listenFd);
  void serviceConnections();
  bool handleFrame(Conn& conn, const ipc::Frame& frame);
  void handleSubmit(Conn& conn, const ipc::Frame& frame);
  void handleStatus(Conn& conn, const ipc::Frame& frame);
  void handleCancel(Conn& conn, const ipc::Frame& frame);
  void dropConnection(Conn& conn);
  JobState stateOf(Job& job, bool withArtifacts);

  const ServeOptions& opt_;
  JobQueue queue_;
  Scheduler scheduler_;  ///< holds queue_: declared after it
  std::vector<Conn> conns_;
};

Status Daemon::run() {
  std::uint16_t bound = 0;
  Result<int> listening = net::listenOn(opt_.port, &bound);
  if (!listening.isOk()) return listening.status();
  const int listenFd = listening.take();
  if (opt_.boundHook) opt_.boundHook(bound);
  log("listening on port " + std::to_string(bound) + ", state dir " +
      queue_.stateDir());

  Status walFault = Status::ok();
  while (!stopped()) {
    // Fail closed on a poisoned WAL: once a storage fault latches the
    // queue's journal, no transition can be made durable, so continuing
    // to accept or dispatch work would silently drop state. Drain and
    // exit with the cause; a restart folds the WAL back to the last
    // COMMIT-consistent prefix and recovers every job.
    if (queue_.walPoisoned()) {
      walFault = Status::internal(
          "queue WAL unusable (" + queue_.walPoisonCause() +
          "); daemon stopping - restart to recover from the last COMMIT");
      std::fprintf(stderr, "[syseco-serve] fatal: %s\n",
                   walFault.message().c_str());
      break;
    }
    std::vector<int> fds;
    fds.push_back(listenFd);
    for (const Conn& c : conns_) fds.push_back(c.fd);
    for (int fd : scheduler_.pollFds()) fds.push_back(fd);
    subprocess::pollReadable(fds, kTickMs);
    acceptClients(listenFd);
    serviceConnections();
    scheduler_.tick();
  }

  // Clean drain: terminate in-flight workers (their journals keep every
  // committed checkpoint) and leave their jobs running in the WAL - the
  // next daemon life recovers them as queued-with-resume.
  queue_.note("shutdown");
  scheduler_.shutdown();
  for (Conn& c : conns_) net::closeSocket(c.fd);
  int fd = listenFd;
  net::closeSocket(fd);
  return walFault;
}

void Daemon::acceptClients(int listenFd) {
  while (true) {
    int softErr = 0;
    Result<int> client = net::acceptClient(listenFd, 0, &softErr);
    if (!client.isOk()) {
      warn("accept failed: " + client.status().message());
      return;
    }
    const int fd = client.take();
    if (fd < 0) {
      if (softErr != 0) {
        // fd exhaustion or kernel resource pressure: journal it and back
        // off for one tick. The listener stays up; pending connections
        // stay queued in the kernel until fds free up.
        warn("accept backoff: errno " + std::to_string(softErr) +
             " (transient resource exhaustion); retrying");
        subprocess::pollReadable({}, 200);
      }
      return;
    }
    Conn c;
    c.fd = fd;
    conns_.push_back(std::move(c));
    log("client connected (fd " + std::to_string(fd) + ", " +
        std::to_string(conns_.size()) + " session(s))");
  }
}

void Daemon::serviceConnections() {
  for (std::size_t i = 0; i < conns_.size();) {
    Conn& c = conns_[i];
    bool alive = true;
    while (alive) {
      net::RecvOutcome out = net::recvFrame(c.fd, &c.rx, 0);
      if (out.status == net::RecvStatus::kTimeout) break;
      if (out.status != net::RecvStatus::kFrame) {
        // Closed, truncated, garbage or reset: same session teardown for
        // all of them - bound jobs are cancelled, detached jobs live on.
        log("client gone (" + out.detail + ")");
        alive = false;
        break;
      }
      alive = handleFrame(c, out.frame);
    }
    if (!alive) {
      dropConnection(c);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool Daemon::handleFrame(Conn& conn, const ipc::Frame& frame) {
  switch (frame.type) {
    case ipc::kTypeServeSubmit:
      handleSubmit(conn, frame);
      return true;
    case ipc::kTypeServeStatus:
      handleStatus(conn, frame);
      return true;
    case ipc::kTypeServeCancel:
      handleCancel(conn, frame);
      return true;
    default:
      // A known SEF1 frame that is not a serve verb: a confused peer
      // (e.g. a fleet supervisor dialed the wrong port). Drop the session.
      log("unexpected frame type " + std::to_string(frame.type) +
          "; dropping session");
      return false;
  }
}

void Daemon::handleSubmit(Conn& conn, const ipc::Frame& frame) {
  auto reject = [&](const std::string& reason, const std::string& detail) {
    Rejected r;
    r.reason = reason;
    r.detail = detail;
    log("rejected submit (" + reason + "): " + detail);
    net::sendFrame(conn.fd, ipc::kTypeServeRejected, encodeRejected(r));
  };
  if (stopped()) {
    reject("shutting-down", "daemon is draining");
    return;
  }
  Result<SubmitRequest> decoded = decodeSubmit(frame.payload);
  if (!decoded.isOk()) {
    reject("bad-request", decoded.status().message());
    return;
  }
  const SubmitRequest req = decoded.take();
  const std::uint64_t bytes = req.implText.size() + req.specText.size();
  Admission adm = queue_.admit(req.tenant, bytes, opt_.limits);
  if (!adm.admitted) {
    reject(adm.reason, adm.detail);
    return;
  }
  if (Status s = validatePayload(req); !s.isOk()) {
    reject("bad-request", s.message());
    return;
  }
  Result<Job*> submitted = queue_.submit(req);
  if (!submitted.isOk()) {
    // Durability failure, not a client error: shed the job rather than
    // accept work the WAL cannot attest to.
    warn("submit persistence failed: " + submitted.status().message());
    reject("queue-full", "cannot persist job: " +
                             submitted.status().message());
    return;
  }
  Job* job = submitted.take();
  if (!job->detach) conn.ownedJobs.push_back(job->id);
  log("accepted job " + job->id + " (tenant " + job->tenant + ", " +
      std::to_string(bytes) + " bytes" + (job->detach ? ", detached)" : ")"));
  Accepted ok;
  ok.job = job->id;
  net::sendFrame(conn.fd, ipc::kTypeServeAccepted, encodeAccepted(ok));
}

JobState Daemon::stateOf(Job& job, bool withArtifacts) {
  JobState st;
  st.job = job.id;
  st.state = queueStateName(job.state);
  st.attempt = job.attempt;
  st.exitCode = job.exitCode;
  st.cause = job.cause;
  st.detail = job.detail;
  if (withArtifacts && (job.state == QueueState::kDone ||
                        job.state == QueueState::kFailed)) {
    st.reportText = slurp(queue_.reportPath(job));
    if (job.state == QueueState::kDone)
      st.outText = slurp(queue_.outPath(job));
  }
  return st;
}

void Daemon::handleStatus(Conn& conn, const ipc::Frame& frame) {
  Result<JobRef> ref = decodeJobRef(frame.payload);
  JobState st;
  if (!ref.isOk()) {
    st.state = "unknown";
    st.detail = ref.status().message();
  } else if (Job* job = queue_.find(ref.value().job)) {
    st = stateOf(*job, /*withArtifacts=*/true);
  } else {
    st.job = ref.value().job;
    st.state = "unknown";
    st.detail = "no such job";
  }
  net::sendFrame(conn.fd, ipc::kTypeServeJobState, encodeJobState(st));
}

void Daemon::handleCancel(Conn& conn, const ipc::Frame& frame) {
  Result<JobRef> ref = decodeJobRef(frame.payload);
  JobState st;
  if (!ref.isOk()) {
    st.state = "unknown";
    st.detail = ref.status().message();
  } else if (Job* job = queue_.find(ref.value().job)) {
    scheduler_.cancel(*job, "client-cancel", "cancelled by request");
    st = stateOf(*job, /*withArtifacts=*/false);
  } else {
    st.job = ref.value().job;
    st.state = "unknown";
    st.detail = "no such job";
  }
  net::sendFrame(conn.fd, ipc::kTypeServeJobState, encodeJobState(st));
}

void Daemon::dropConnection(Conn& conn) {
  for (const std::string& id : conn.ownedJobs)
    if (Job* job = queue_.find(id))
      scheduler_.cancel(*job, "client-disconnect",
                        "submitting connection closed before completion");
  net::closeSocket(conn.fd);
}

}  // namespace

Status runServeDaemon(const ServeOptions& options) {
  if (options.stateDir.empty())
    return Status::invalidInput("--serve needs a state directory");
  if (options.selfExe.empty())
    return Status::invalidInput("serve daemon needs its worker binary path");
  ioretry::ignoreSigpipeOnce();
  Result<JobQueue> queue = JobQueue::open(options.stateDir);
  if (!queue.isOk()) return queue.status();
  Daemon daemon(options, queue.take());
  return daemon.run();
}

// --- Client ---------------------------------------------------------------

namespace {

constexpr int kReplyTimeoutMs = 10000;

Result<ipc::Frame> roundTrip(int fd, std::string* rx, std::uint32_t type,
                             const std::string& payload,
                             std::uint32_t expect1, std::uint32_t expect2) {
  if (Status s = net::sendFrame(fd, type, payload); !s.isOk()) return s;
  net::RecvOutcome out = net::recvFrame(fd, rx, kReplyTimeoutMs);
  if (out.status != net::RecvStatus::kFrame)
    return Status::internal("daemon reply failed: " + out.detail);
  if (out.frame.type != expect1 && out.frame.type != expect2)
    return Status::internal("unexpected daemon reply type " +
                            std::to_string(out.frame.type));
  return std::move(out.frame);
}

}  // namespace

Result<ServeClient> ServeClient::connect(const std::string& host,
                                         std::uint16_t port, int timeoutMs) {
  Result<int> fd = net::connectTo(host, port, timeoutMs);
  if (!fd.isOk()) return fd.status();
  ServeClient c;
  c.fd_ = fd.take();
  return c;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) net::closeSocket(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
    rx_ = std::move(other.rx_);
  }
  return *this;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) net::closeSocket(fd_);
}

Result<SubmitOutcome> ServeClient::submit(const SubmitRequest& request) {
  Result<ipc::Frame> reply =
      roundTrip(fd_, &rx_, ipc::kTypeServeSubmit, encodeSubmit(request),
                ipc::kTypeServeAccepted, ipc::kTypeServeRejected);
  if (!reply.isOk()) return reply.status();
  SubmitOutcome out;
  if (reply.value().type == ipc::kTypeServeAccepted) {
    Result<Accepted> acc = decodeAccepted(reply.value().payload);
    if (!acc.isOk()) return acc.status();
    out.accepted = true;
    out.job = acc.take().job;
    return out;
  }
  Result<Rejected> rej = decodeRejected(reply.value().payload);
  if (!rej.isOk()) return rej.status();
  out.rejected = rej.take();
  return out;
}

Result<JobState> ServeClient::status(const std::string& job) {
  JobRef ref;
  ref.job = job;
  Result<ipc::Frame> reply =
      roundTrip(fd_, &rx_, ipc::kTypeServeStatus, encodeJobRef(ref),
                ipc::kTypeServeJobState, ipc::kTypeServeJobState);
  if (!reply.isOk()) return reply.status();
  return decodeJobState(reply.value().payload);
}

Result<JobState> ServeClient::cancel(const std::string& job) {
  JobRef ref;
  ref.job = job;
  Result<ipc::Frame> reply =
      roundTrip(fd_, &rx_, ipc::kTypeServeCancel, encodeJobRef(ref),
                ipc::kTypeServeJobState, ipc::kTypeServeJobState);
  if (!reply.isOk()) return reply.status();
  return decodeJobState(reply.value().payload);
}

Result<JobState> ServeClient::wait(const std::string& job, int pollMs) {
  while (true) {
    Result<JobState> st = status(job);
    if (!st.isOk()) return st.status();
    const std::string& s = st.value().state;
    if (s == "done" || s == "failed" || s == "cancelled" || s == "unknown")
      return st;
    subprocess::pollReadable({}, pollMs);
  }
}

}  // namespace syseco::serve
