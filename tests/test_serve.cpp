// ECO-as-a-service: the durable job queue (daemon jobs and registered
// batch cases alike), admission control, worker-pool watchdog, session
// protocol and the daemon's --workers fleet path, plus the property
// the whole subsystem exists for - a daemon killed with SIGKILL at any
// instant recovers its queue from the WAL, resumes mid-run jobs from
// their own engine journals, and drains to verdict records bit-identical
// to undisturbed one-shot runs.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/journal_io.hpp"
#include "serve/codec.hpp"
#include "serve/job_queue.hpp"
#include "serve/serve.hpp"
#include "serve/watchdog.hpp"
#include "util/journal.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "test_agent.hpp"
#include "test_dirs.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco::serve {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string freshDir(const std::string& name) {
  return uniqueTestDir("serve", name);
}

std::string dataPath(const char* name) {
  return std::string(SYSECO_SOURCE_DIR) + "/data/" + name;
}

// --- Session protocol codecs ----------------------------------------------

TEST(ServeCodec, SubmitRoundtripsEveryField) {
  SubmitRequest r;
  r.tenant = "team-a";
  r.format = "netlist";
  r.implText = "impl \"with\" quotes\nand lines";
  r.specText = "spec text";
  r.seed = 0xfeedfacecafeULL;
  r.jobs = 4;
  r.isolate = true;
  r.detach = true;
  r.faultPlan = "from 0 isolate.worker hang\n";
  Result<SubmitRequest> back = decodeSubmit(encodeSubmit(r));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().tenant, "team-a");
  EXPECT_EQ(back.value().format, "netlist");
  EXPECT_EQ(back.value().implText, r.implText);
  EXPECT_EQ(back.value().specText, r.specText);
  EXPECT_EQ(back.value().seed, 0xfeedfacecafeULL);
  EXPECT_EQ(back.value().jobs, 4);
  EXPECT_TRUE(back.value().isolate);
  EXPECT_TRUE(back.value().detach);
  EXPECT_EQ(back.value().faultPlan, "from 0 isolate.worker hang\n");
}

TEST(ServeCodec, SubmitRejectsHostileBytes) {
  EXPECT_FALSE(decodeSubmit("").isOk());
  EXPECT_FALSE(decodeSubmit("not json").isOk());
  EXPECT_FALSE(decodeSubmit("[1,2,3]").isOk());
  SubmitRequest ok;
  ok.implText = "i";
  ok.specText = "s";
  ASSERT_TRUE(decodeSubmit(encodeSubmit(ok)).isOk());
  // Each semantic constraint individually: empty netlists, an unknown
  // format, an out-of-range jobs count, an empty tenant.
  SubmitRequest bad = ok;
  bad.implText.clear();
  EXPECT_FALSE(decodeSubmit(encodeSubmit(bad)).isOk());
  bad = ok;
  bad.specText.clear();
  EXPECT_FALSE(decodeSubmit(encodeSubmit(bad)).isOk());
  bad = ok;
  bad.format = "vhdl";
  EXPECT_FALSE(decodeSubmit(encodeSubmit(bad)).isOk());
  bad = ok;
  bad.jobs = 0;
  EXPECT_FALSE(decodeSubmit(encodeSubmit(bad)).isOk());
  bad = ok;
  bad.jobs = 100000;
  EXPECT_FALSE(decodeSubmit(encodeSubmit(bad)).isOk());
  bad = ok;
  bad.tenant.clear();
  EXPECT_FALSE(decodeSubmit(encodeSubmit(bad)).isOk());
}

TEST(ServeCodec, RepliesRoundtripAndRejectGarbage) {
  Accepted a;
  a.job = "j000042";
  Result<Accepted> a2 = decodeAccepted(encodeAccepted(a));
  ASSERT_TRUE(a2.isOk());
  EXPECT_EQ(a2.value().job, "j000042");
  EXPECT_FALSE(decodeAccepted("junk").isOk());

  Rejected r;
  r.reason = "queue-full";
  r.detail = "16 job(s) resident, limit 16";
  Result<Rejected> r2 = decodeRejected(encodeRejected(r));
  ASSERT_TRUE(r2.isOk());
  EXPECT_EQ(r2.value().reason, "queue-full");
  EXPECT_EQ(r2.value().detail, r.detail);
  EXPECT_FALSE(decodeRejected("{}").isOk());

  JobRef ref;
  ref.job = "j000001";
  Result<JobRef> ref2 = decodeJobRef(encodeJobRef(ref));
  ASSERT_TRUE(ref2.isOk());
  EXPECT_EQ(ref2.value().job, "j000001");
  EXPECT_FALSE(decodeJobRef("").isOk());

  JobState st;
  st.job = "j000007";
  st.state = "done";
  st.attempt = 3;
  st.exitCode = 0;
  st.cause = "";
  st.detail = "";
  st.reportText = "{\"outputs\":[]}\n";
  st.outText = ".model top\n.end\n";
  Result<JobState> st2 = decodeJobState(encodeJobState(st));
  ASSERT_TRUE(st2.isOk()) << st2.status().toString();
  EXPECT_EQ(st2.value().job, "j000007");
  EXPECT_EQ(st2.value().state, "done");
  EXPECT_EQ(st2.value().attempt, 3);
  EXPECT_EQ(st2.value().reportText, st.reportText);
  EXPECT_EQ(st2.value().outText, st.outText);
  EXPECT_FALSE(decodeJobState("\xff\xfe").isOk());
}

// --- Durable job queue ----------------------------------------------------

SubmitRequest queueRequest(const std::string& tenant,
                           const std::string& payload) {
  SubmitRequest r;
  r.tenant = tenant;
  r.implText = payload;
  r.specText = payload;
  r.seed = 9;
  return r;
}

TEST(ServeQueue, SubmitPersistsPayloadAndFeedsTheLedgers) {
  const std::string dir = freshDir("submit");
  Result<JobQueue> opened = JobQueue::open(dir);
  ASSERT_TRUE(opened.isOk()) << opened.status().toString();
  JobQueue q = opened.take();
  Result<Job*> job = q.submit(queueRequest("alice", "payload"));
  ASSERT_TRUE(job.isOk()) << job.status().toString();
  EXPECT_EQ(job.value()->id, "j000001");
  EXPECT_EQ(job.value()->state, QueueState::kQueued);
  // The payload is durably on disk before the WAL attests to the job.
  EXPECT_EQ(slurp(q.implPath(*job.value())), "payload");
  EXPECT_EQ(slurp(q.specPath(*job.value())), "payload");
  EXPECT_EQ(q.residentCount(), 1u);
  EXPECT_EQ(q.tenantResident("alice"), 1u);
  EXPECT_EQ(q.tenantResident("bob"), 0u);
  EXPECT_EQ(q.residentBytes(), 14u);
  EXPECT_EQ(q.nextQueued(), job.value());
}

TEST(ServeQueue, MidRunJobsRecoverAsQueuedWithResume) {
  const std::string dir = freshDir("recover");
  {
    Result<JobQueue> opened = JobQueue::open(dir);
    ASSERT_TRUE(opened.isOk());
    JobQueue q = opened.take();
    Result<Job*> j1 = q.submit(queueRequest("alice", "one"));
    Result<Job*> j2 = q.submit(queueRequest("bob", "two"));
    ASSERT_TRUE(j1.isOk() && j2.isOk());
    ASSERT_TRUE(q.markRunning(*j1.value(), 1).isOk());
    // No clean shutdown: this scope *is* the SIGKILL.
  }
  Result<JobQueue> reopened = JobQueue::open(dir);
  ASSERT_TRUE(reopened.isOk()) << reopened.status().toString();
  JobQueue q = reopened.take();
  Job* j1 = q.find("j000001");
  Job* j2 = q.find("j000002");
  ASSERT_NE(j1, nullptr);
  ASSERT_NE(j2, nullptr);
  // The mid-run job came back queued-with-resume at its old attempt count;
  // the untouched job is plainly queued.
  EXPECT_EQ(j1->state, QueueState::kQueued);
  EXPECT_TRUE(j1->resume);
  EXPECT_EQ(j1->attempt, 1);
  EXPECT_EQ(j1->tenant, "alice");
  EXPECT_EQ(j2->state, QueueState::kQueued);
  EXPECT_FALSE(j2->resume);
  bool noted = false;
  for (const std::string& n : q.recoveryNotes())
    if (n.find("j000001") != std::string::npos &&
        n.find("resume") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted);
  // Id assignment is crash-stable: the next submit does not reuse an id.
  Result<Job*> j3 = q.submit(queueRequest("carol", "three"));
  ASSERT_TRUE(j3.isOk());
  EXPECT_EQ(j3.value()->id, "j000003");
}

TEST(ServeQueue, TerminalStatesSurviveAndCompactionBoundsTheWal) {
  const std::string dir = freshDir("compact");
  {
    Result<JobQueue> opened = JobQueue::open(dir);
    ASSERT_TRUE(opened.isOk());
    JobQueue q = opened.take();
    Result<Job*> job = q.submit(queueRequest("alice", "x"));
    ASSERT_TRUE(job.isOk());
    ASSERT_TRUE(q.markRunning(*job.value(), 1).isOk());
    ASSERT_TRUE(q.markRequeued(*job.value(), "crash", "worker died").isOk());
    ASSERT_TRUE(q.markRunning(*job.value(), 2).isOk());
    ASSERT_TRUE(q.markDone(*job.value(), 0).isOk());
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(q.note("tick " + std::to_string(i)).isOk());
  }
  Result<JobQueue> reopened = JobQueue::open(dir);
  ASSERT_TRUE(reopened.isOk());
  JobQueue q = reopened.take();
  Job* job = q.find("j000001");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, QueueState::kDone);
  EXPECT_EQ(job->exitCode, 0);
  EXPECT_EQ(q.residentCount(), 0u);
  // Compaction rewrote the WAL from the folded state: its length tracks
  // queue occupancy (2 records for the one job), not the 50+ notes and
  // transitions of the daemon's lifetime.
  const std::string wal = slurp(dir + "/queue/journal.jsonl");
  const std::size_t lines =
      static_cast<std::size_t>(std::count(wal.begin(), wal.end(), '\n'));
  EXPECT_LE(lines, 6u) << wal;
}

TEST(ServeQueue, ReRegistrationIsIdempotentButGuardsTheManifest) {
  const std::string dir = freshDir("idem");
  Result<JobQueue> opened = JobQueue::open(dir);
  ASSERT_TRUE(opened.isOk());
  JobQueue q = opened.take();
  Result<Job*> first = q.registerCase("a", "i.blif", "s.blif", 1, 1);
  ASSERT_TRUE(first.isOk());
  Result<Job*> again = q.registerCase("a", "i.blif", "s.blif", 1, 1);
  ASSERT_TRUE(again.isOk());
  EXPECT_EQ(first.value(), again.value()) << "same case, same record";
  // The same name with different inputs is a different sweep: refuse it
  // rather than silently mixing manifests on one state directory.
  for (const auto& [impl, spec, seed, jobs] :
       {std::tuple<const char*, const char*, std::uint64_t, std::int64_t>{
            "OTHER.blif", "s.blif", 1, 1},
        {"i.blif", "OTHER.blif", 1, 1},
        {"i.blif", "s.blif", 2, 1},
        {"i.blif", "s.blif", 1, 2}}) {
    Result<Job*> clash = q.registerCase("a", impl, spec, seed, jobs);
    ASSERT_FALSE(clash.isOk());
    EXPECT_EQ(clash.status().code(), StatusCode::kInvalidInput);
  }
  EXPECT_EQ(q.all().size(), 1u);
}

TEST(ServeQueue, GarbageWalRecordsAreQuarantinedNotFatal) {
  const std::string dir = freshDir("garbage");
  {
    Result<JobQueue> opened = JobQueue::open(dir);
    ASSERT_TRUE(opened.isOk());
    ASSERT_TRUE(opened.value().submit(queueRequest("alice", "x")).isOk());
    ASSERT_TRUE(
        opened.value().registerCase("a", "i.blif", "s.blif", 1, 1).isOk());
  }
  // A framed record whose payload is not a queue event, then raw garbage
  // past the valid records.
  {
    Result<JournalScan> scan = scanJournal(dir + "/queue");
    ASSERT_TRUE(scan.isOk());
    Result<JournalWriter> w = JournalWriter::resume(dir + "/queue",
                                                    scan.value(), "queue.wal");
    ASSERT_TRUE(w.isOk()) << w.status().toString();
    ASSERT_TRUE(w.value().append("{\"type\":\"serve\",\"event\":7}").isOk());
  }
  std::ofstream(dir + "/queue/journal.jsonl", std::ios::app)
      << "J1 zzzz not-a-frame\n";
  Result<JobQueue> back = JobQueue::open(dir);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_NE(back.value().find("j000001"), nullptr);
  EXPECT_NE(back.value().find("a"), nullptr);
  bool dropped = false;
  for (const std::string& n : back.value().recoveryNotes())
    dropped |= n.find("unparseable") != std::string::npos;
  EXPECT_TRUE(dropped) << "a dropped record must be observable";
}

TEST(ServeQueue, AdmissionShedsAtEachLedgerAndFreesOnCompletion) {
  const std::string dir = freshDir("admit");
  Result<JobQueue> opened = JobQueue::open(dir);
  ASSERT_TRUE(opened.isOk());
  JobQueue q = opened.take();
  AdmissionLimits limits;
  limits.maxResidentJobs = 2;
  limits.maxPerTenant = 1;
  limits.maxResidentBytes = 100;

  EXPECT_TRUE(q.admit("alice", 10, limits).admitted);
  Result<Job*> j1 = q.submit(queueRequest("alice", "12345"));
  ASSERT_TRUE(j1.isOk());

  Admission quota = q.admit("alice", 10, limits);
  EXPECT_FALSE(quota.admitted);
  EXPECT_EQ(quota.reason, "tenant-quota");

  Admission bytes = q.admit("bob", 200, limits);
  EXPECT_FALSE(bytes.admitted);
  EXPECT_EQ(bytes.reason, "memory-watermark");

  Result<Job*> j2 = q.submit(queueRequest("bob", "1"));
  ASSERT_TRUE(j2.isOk());
  Admission full = q.admit("carol", 1, limits);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, "queue-full");
  EXPECT_NE(full.detail.find("limit 2"), std::string::npos);

  // Terminal jobs leave the ledgers; the same submit is admitted again.
  ASSERT_TRUE(q.markRunning(*j1.value(), 1).isOk());
  ASSERT_TRUE(q.markDone(*j1.value(), 0).isOk());
  EXPECT_TRUE(q.admit("carol", 1, limits).admitted);
  EXPECT_TRUE(q.admit("alice", 10, limits).admitted);
}

// --- Worker-pool watchdog -------------------------------------------------

std::vector<std::string> shellArgv(const std::string& script) {
  return {"/bin/sh", "-c", script};
}

std::vector<WorkerExit> reapAll(PoolWatchdog& wd, std::size_t expect) {
  std::vector<WorkerExit> exits;
  for (int waited = 0; waited < 20000 && exits.size() < expect;
       waited += 20) {
    for (WorkerExit& e : wd.reap()) exits.push_back(std::move(e));
    if (exits.size() < expect) subprocess::pollReadable({}, 20);
  }
  return exits;
}

const WorkerExit* exitFor(const std::vector<WorkerExit>& exits,
                          const std::string& job) {
  for (const WorkerExit& e : exits)
    if (e.job == job) return &e;
  return nullptr;
}

TEST(ServeWatchdog, ClassifiesVerdictExitsTerminalAndDeathsRetryable) {
  const std::string dir = freshDir("classify");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  PoolWatchdog wd(4);
  ASSERT_TRUE(wd.spawn("clean", 1, shellArgv("exit 0"), dir + "/a.log", {})
                  .isOk());
  ASSERT_TRUE(wd.spawn("degraded", 1, shellArgv("exit 4"), dir + "/b.log", {})
                  .isOk());
  ASSERT_TRUE(wd.spawn("died", 2, shellArgv("exit 77"), dir + "/c.log", {})
                  .isOk());
  ASSERT_TRUE(wd.spawn("shot", 1, shellArgv("kill -KILL $$"),
                       dir + "/d.log", {})
                  .isOk());
  EXPECT_FALSE(wd.hasIdleSlot());
  EXPECT_TRUE(wd.isRunning("clean"));

  const std::vector<WorkerExit> exits = reapAll(wd, 4);
  ASSERT_EQ(exits.size(), 4u);
  const WorkerExit* clean = exitFor(exits, "clean");
  const WorkerExit* degraded = exitFor(exits, "degraded");
  const WorkerExit* died = exitFor(exits, "died");
  const WorkerExit* shot = exitFor(exits, "shot");
  ASSERT_NE(clean, nullptr);
  ASSERT_NE(degraded, nullptr);
  ASSERT_NE(died, nullptr);
  ASSERT_NE(shot, nullptr);
  // Engine verdict exits are terminal; deaths are retryable crashes.
  EXPECT_EQ(clean->cause, "ok");
  EXPECT_FALSE(clean->retryable);
  EXPECT_EQ(clean->exitCode, 0);
  EXPECT_EQ(degraded->cause, "ok");
  EXPECT_FALSE(degraded->retryable);
  EXPECT_EQ(degraded->exitCode, 4);
  EXPECT_EQ(died->cause, "crash");
  EXPECT_TRUE(died->retryable);
  EXPECT_EQ(died->attempt, 2);
  EXPECT_TRUE(shot->signaled);
  EXPECT_EQ(shot->signal, SIGKILL);
  EXPECT_EQ(shot->cause, "crash");
  EXPECT_TRUE(shot->retryable);
  // Every slot came back.
  EXPECT_EQ(wd.busy(), 0u);
  EXPECT_FALSE(wd.isRunning("clean"));
}

TEST(ServeWatchdog, ExportsExtraEnvAndCapturesTheWorkerLog) {
  const std::string dir = freshDir("env");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  PoolWatchdog wd(1);
  ASSERT_TRUE(wd.spawn("envjob", 1,
                       shellArgv("echo marker-$SYSECO_SERVE_TEST_ENV"),
                       dir + "/w.log", {"SYSECO_SERVE_TEST_ENV=hello"})
                  .isOk());
  ASSERT_EQ(reapAll(wd, 1).size(), 1u);
  EXPECT_NE(slurp(dir + "/w.log").find("marker-hello"), std::string::npos);
}

TEST(ServeWatchdog, TerminateKillsAStubbornProcessGroup) {
  const std::string dir = freshDir("term");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  PoolWatchdog wd(1);
  // The stand-in shrugs off SIGTERM, so only the escalation to SIGKILL
  // (after the grace) can end it.
  ASSERT_TRUE(wd.spawn("stubborn", 1,
                       shellArgv("trap '' TERM; sleep 600"),
                       dir + "/w.log", {})
                  .isOk());
  ASSERT_TRUE(wd.isRunning("stubborn"));
  wd.terminate("stubborn", 0.2);
  EXPECT_FALSE(wd.isRunning("stubborn"));
  EXPECT_EQ(wd.busy(), 0u);
  EXPECT_TRUE(wd.reap().empty());
}

// --- Accept-loop resource exhaustion taxonomy -----------------------------

TEST(ServeSocket, TransientAcceptErrorsAreExactlyResourceExhaustion) {
  EXPECT_TRUE(net::isTransientAcceptError(EMFILE));
  EXPECT_TRUE(net::isTransientAcceptError(ENFILE));
  EXPECT_TRUE(net::isTransientAcceptError(ENOBUFS));
  EXPECT_TRUE(net::isTransientAcceptError(ENOMEM));
  EXPECT_TRUE(net::isTransientAcceptError(ECONNABORTED));
  EXPECT_FALSE(net::isTransientAcceptError(0));
  EXPECT_FALSE(net::isTransientAcceptError(EBADF));
  EXPECT_FALSE(net::isTransientAcceptError(EINVAL));
}

// --- End-to-end daemon sessions -------------------------------------------

#ifdef SYSECO_CLI_BIN

/// A real daemon event loop on a loopback ephemeral port, in-thread, with
/// the real CLI binary exec'd per job.
struct DaemonHarness {
  std::atomic<bool> stop{false};
  std::atomic<int> port{-1};
  std::thread th;

  void start(ServeOptions opt) {
    opt.port = 0;
    opt.selfExe = SYSECO_CLI_BIN;
    opt.stop = &stop;
    opt.boundHook = [this](std::uint16_t bound) {
      port.store(static_cast<int>(bound));
    };
    th = std::thread([opt] {
      const Status st = runServeDaemon(opt);
      if (!st.isOk()) ADD_FAILURE() << "daemon failed: " << st.toString();
    });
    while (port.load() < 0) subprocess::pollReadable({}, 10);
  }

  ServeClient client() {
    Result<ServeClient> c = ServeClient::connect(
        "127.0.0.1", static_cast<std::uint16_t>(port.load()), 5000);
    EXPECT_TRUE(c.isOk()) << c.status().toString();
    return c.take();
  }

  ~DaemonHarness() {
    stop.store(true);
    if (th.joinable()) th.join();
  }
};

SubmitRequest aluRequest(std::uint64_t seed) {
  SubmitRequest r;
  r.implText = slurp(dataPath("alu_impl.blif"));
  r.specText = slurp(dataPath("alu_spec.blif"));
  r.seed = seed;
  return r;
}

/// A job guaranteed to stay resident: its isolate worker ignores SIGTERM
/// and spins, so only cancellation (SIGKILL escalation) or the isolate
/// supervisor's own deadline ends it.
SubmitRequest hangingRequest(std::uint64_t seed, bool detach) {
  SubmitRequest r = aluRequest(seed);
  r.isolate = true;
  r.faultPlan = "from 0 isolate.worker hang\n";
  r.detach = detach;
  return r;
}

TEST(ServeDaemon, SubmitRunsToDoneWithInlineArtifacts) {
  DaemonHarness daemon;
  ServeOptions opt;
  opt.stateDir = freshDir("e2e_done");
  daemon.start(opt);
  ServeClient client = daemon.client();

  Result<SubmitOutcome> sub = client.submit(aluRequest(7));
  ASSERT_TRUE(sub.isOk()) << sub.status().toString();
  ASSERT_TRUE(sub.value().accepted) << sub.value().rejected.reason;
  const std::string job = sub.value().job;
  EXPECT_EQ(job, "j000001");

  Result<JobState> done = client.wait(job, 50);
  ASSERT_TRUE(done.isOk()) << done.status().toString();
  EXPECT_EQ(done.value().state, "done");
  EXPECT_EQ(done.value().exitCode, 0);
  EXPECT_EQ(done.value().attempt, 1);
  // Finished jobs travel whole: report and rectified netlist inline, so a
  // remote client needs no shared filesystem with the daemon.
  EXPECT_NE(done.value().reportText.find("\"outputs\""), std::string::npos);
  EXPECT_NE(done.value().outText.find(".model"), std::string::npos);

  Result<JobState> ghost = client.status("j999999");
  ASSERT_TRUE(ghost.isOk());
  EXPECT_EQ(ghost.value().state, "unknown");
}

TEST(ServeDaemon, CrashingJobIsQuarantinedAtTheAttemptCeiling) {
  DaemonHarness daemon;
  ServeOptions opt;
  opt.stateDir = freshDir("e2e_quarantine");
  opt.maxAttempts = 2;
  opt.backoffBaseMs = 20.0;
  daemon.start(opt);
  ServeClient client = daemon.client();

  // The worker self-crashes at every checkpoint commit; two attempts
  // cannot finish the alu case, so the watchdog must quarantine instead
  // of looping forever.
  SubmitRequest req = aluRequest(7);
  req.faultPlan = "from 0 journal.checkpoint crash\n";
  Result<SubmitOutcome> sub = client.submit(req);
  ASSERT_TRUE(sub.isOk());
  ASSERT_TRUE(sub.value().accepted);

  Result<JobState> st = client.wait(sub.value().job, 50);
  ASSERT_TRUE(st.isOk());
  EXPECT_EQ(st.value().state, "failed");
  EXPECT_EQ(st.value().cause, "crash");
  EXPECT_NE(st.value().detail.find("quarantined"), std::string::npos);
  EXPECT_EQ(st.value().attempt, 2);
}

TEST(ServeDaemon, AdmissionShedsLoadWithStructuredReasons) {
  DaemonHarness daemon;
  ServeOptions opt;
  opt.stateDir = freshDir("e2e_admission");
  opt.limits.maxResidentJobs = 1;
  daemon.start(opt);
  ServeClient client = daemon.client();

  // Unparseable payloads are rejected at the door, before any queue state
  // exists for them.
  SubmitRequest garbage = aluRequest(1);
  garbage.implText = "this is not a blif netlist";
  Result<SubmitOutcome> bad = client.submit(garbage);
  ASSERT_TRUE(bad.isOk()) << bad.status().toString();
  ASSERT_FALSE(bad.value().accepted);
  EXPECT_EQ(bad.value().rejected.reason, "bad-request");

  // So are malformed fault plans: a typo'd kind would otherwise spawn a
  // worker that exits 3 and is recorded done.
  SubmitRequest badPlan = aluRequest(1);
  badPlan.faultPlan = "from 0 journal.checkpoint crsh\n";
  bad = client.submit(badPlan);
  ASSERT_TRUE(bad.isOk()) << bad.status().toString();
  ASSERT_FALSE(bad.value().accepted);
  EXPECT_EQ(bad.value().rejected.reason, "bad-request");
  EXPECT_NE(bad.value().rejected.detail.find("line 1: unknown fault kind"),
            std::string::npos)
      << bad.value().rejected.detail;

  Result<SubmitOutcome> first = client.submit(hangingRequest(1, true));
  ASSERT_TRUE(first.isOk());
  ASSERT_TRUE(first.value().accepted);

  // The queue is at its watermark: load is shed with a structured reason,
  // not a dropped connection.
  Result<SubmitOutcome> shed = client.submit(aluRequest(2));
  ASSERT_TRUE(shed.isOk()) << shed.status().toString();
  ASSERT_FALSE(shed.value().accepted);
  EXPECT_EQ(shed.value().rejected.reason, "queue-full");
  EXPECT_NE(shed.value().rejected.detail.find("limit 1"), std::string::npos);

  // Cancelling the resident job frees the ledger; the same submit is
  // admitted again and runs to completion.
  Result<JobState> cancelled = client.cancel(first.value().job);
  ASSERT_TRUE(cancelled.isOk());
  EXPECT_EQ(cancelled.value().state, "cancelled");
  EXPECT_EQ(cancelled.value().cause, "client-cancel");

  Result<SubmitOutcome> retry = client.submit(aluRequest(2));
  ASSERT_TRUE(retry.isOk());
  ASSERT_TRUE(retry.value().accepted);
  Result<JobState> done = client.wait(retry.value().job, 50);
  ASSERT_TRUE(done.isOk());
  EXPECT_EQ(done.value().state, "done");
}

TEST(ServeDaemon, ClientDisconnectCancelsBoundJobsButNotDetachedOnes) {
  DaemonHarness daemon;
  ServeOptions opt;
  opt.stateDir = freshDir("e2e_disconnect");
  opt.poolSize = 1;
  daemon.start(opt);

  std::string bound, detached;
  {
    ServeClient submitter = daemon.client();
    Result<SubmitOutcome> a = submitter.submit(hangingRequest(1, false));
    Result<SubmitOutcome> b = submitter.submit(hangingRequest(2, true));
    ASSERT_TRUE(a.isOk() && b.isOk());
    ASSERT_TRUE(a.value().accepted && b.value().accepted);
    bound = a.value().job;
    detached = b.value().job;
    // The submitting connection dies here, with the bound job mid-run and
    // the detached job queued behind it.
  }

  ServeClient observer = daemon.client();
  JobState boundState;
  for (int waited = 0; waited < 20000; waited += 50) {
    Result<JobState> st = observer.status(bound);
    ASSERT_TRUE(st.isOk()) << st.status().toString();
    boundState = st.value();
    if (boundState.state == "cancelled") break;
    subprocess::pollReadable({}, 50);
  }
  EXPECT_EQ(boundState.state, "cancelled");
  EXPECT_EQ(boundState.cause, "client-disconnect");

  // The detached job survived its submitter and is still resident (the
  // freed slot now runs it, or it is still queued); it answers to any
  // later connection, which cancels it for teardown.
  Result<JobState> det = observer.status(detached);
  ASSERT_TRUE(det.isOk());
  EXPECT_TRUE(det.value().state == "queued" || det.value().state == "running")
      << det.value().state;
  Result<JobState> cleaned = observer.cancel(detached);
  ASSERT_TRUE(cleaned.isOk());
  EXPECT_EQ(cleaned.value().state, "cancelled");
}

// --- Whole-case dispatch to --workers agents -------------------------------

/// The last `event` record the queue WAL holds for `job` (default-valued
/// when there is none).
JournalServeEvent lastEvent(const std::string& stateDir,
                            const std::string& job, const std::string& event) {
  JournalServeEvent last;
  Result<JournalScan> scan = scanJournal(stateDir + "/queue");
  if (!scan.isOk()) return last;
  for (const JournalFrame& f : scan.value().frames) {
    Result<JournalServeEvent> ev = parseServeEvent(f.payload);
    if (ev.isOk() && ev.value().job == job && ev.value().event == event)
      last = ev.take();
  }
  return last;
}

TEST(ServeDaemon, UnreachableAgentDoesNotSpendTheJobsAttempts) {
  DaemonHarness daemon;
  ServeOptions opt;
  opt.stateDir = freshDir("e2e_unreachable");
  opt.workers = {"127.0.0.1:1"};  // nothing listens there
  opt.connectTimeoutMs = 200;
  opt.maxAttempts = 2;
  daemon.start(opt);
  ServeClient client = daemon.client();

  Result<SubmitOutcome> sub = client.submit(aluRequest(7));
  ASSERT_TRUE(sub.isOk()) << sub.status().toString();
  ASSERT_TRUE(sub.value().accepted);
  const std::string job = sub.value().job;
  Result<JobState> st = client.wait(job, 50);
  ASSERT_TRUE(st.isOk()) << st.status().toString();
  // The refused connection strikes the agent, not the job: the job runs on
  // the local pool on its first attempt instead of being quarantined.
  EXPECT_EQ(st.value().state, "done")
      << st.value().cause << ": " << st.value().detail;
  EXPECT_EQ(st.value().exitCode, 0);
  EXPECT_EQ(st.value().attempt, 1);
  const JournalServeEvent done = lastEvent(opt.stateDir, job, "done");
  EXPECT_EQ(done.event, "done");
  EXPECT_EQ(done.worker, "") << "expected the local pool";
}

TEST(ServeDaemon, FleetJobMatchesTheLocalPoolByteForByte) {
  Agent agent;
  agent.start();
  std::vector<std::string> outs, verdicts;
  for (const bool fleet : {true, false}) {
    DaemonHarness daemon;
    ServeOptions opt;
    opt.stateDir = freshDir(fleet ? "e2e_fleet" : "e2e_fleet_local");
    if (fleet) opt.workers = {agent.spec()};
    daemon.start(opt);
    ServeClient client = daemon.client();

    Result<SubmitOutcome> sub = client.submit(aluRequest(3));
    ASSERT_TRUE(sub.isOk()) << sub.status().toString();
    ASSERT_TRUE(sub.value().accepted);
    const std::string job = sub.value().job;
    Result<JobState> done = client.wait(job, 50);
    ASSERT_TRUE(done.isOk()) << done.status().toString();
    ASSERT_EQ(done.value().state, "done") << done.value().detail;
    EXPECT_EQ(done.value().exitCode, 0);
    // The WAL names where the job ran: the agent, or the local pool.
    EXPECT_EQ(lastEvent(opt.stateDir, job, "done").worker,
              fleet ? agent.spec() : "");
    const std::string jobDir = opt.stateDir + "/jobs/" + job;
    outs.push_back(slurp(jobDir + "/out.blif"));
    verdicts.push_back(slurp(jobDir + "/verdicts.txt"));
    EXPECT_EQ(done.value().outText, outs.back());
  }
  ASSERT_FALSE(outs[0].empty());
  ASSERT_FALSE(verdicts[0].empty());
  EXPECT_EQ(outs[0], outs[1]) << "netlist diverged between transports";
  EXPECT_EQ(verdicts[0], verdicts[1]) << "verdicts diverged between transports";
}

// --- SIGKILL the daemon: recovery and bit-identical drain -----------------

class ServeCliTest : public ::testing::Test {
 protected:
  static int runCli(const std::string& args, const std::string& logPath) {
    const std::string cmd = std::string(SYSECO_CLI_BIN) + " " + args + " > '" +
                            logPath + "' 2>&1";
    const int rc = std::system(cmd.c_str());
    if (rc == -1) return -1;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128 + WTERMSIG(rc);
  }

  /// Starts a --serve daemon process; returns its pid and fills `port`
  /// from --port-file once it is listening.
  static pid_t spawnDaemon(const std::string& dir, const std::string& tag,
                           const std::string& extraFlags, int* port) {
    const std::string portFile = dir + "/" + tag + ".port";
    const std::string pidFile = dir + "/" + tag + ".pid";
    ::unlink(portFile.c_str());
    const std::string cmd =
        "sh -c '" + std::string(SYSECO_CLI_BIN) + " --serve 0 --serve-state " +
        dir + "/state --port-file " + portFile + " " + extraFlags + " > " +
        dir + "/" + tag + ".log 2>&1 & echo $!' > " + pidFile;
    if (std::system(cmd.c_str()) != 0) return -1;
    for (int waited = 0; waited < 10000; waited += 50) {
      const std::string text = slurp(portFile);
      if (!text.empty() && text.back() == '\n') {
        *port = std::atoi(text.c_str());
        return static_cast<pid_t>(std::atol(slurp(pidFile).c_str()));
      }
      subprocess::pollReadable({}, 50);
    }
    return -1;
  }

  /// The last journaled verdicts record, raw bytes (the bit-identity
  /// comparison surface the kill-and-resume suite established).
  static std::string lastVerdicts(const std::string& journalDir) {
    const std::string data = slurp(journalDir + "/journal.jsonl");
    const std::size_t at = data.rfind("{\"type\":\"verdicts\"");
    if (at == std::string::npos) return "";
    const std::size_t end = data.find('\n', at);
    return data.substr(at, end == std::string::npos ? data.size() - at
                                                    : end - at);
  }
};

TEST_F(ServeCliTest, SigkilledDaemonRecoversItsQueueAndDrainsBitIdentical) {
  const std::string dir = freshDir("e2e_kill9");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string pair = "--impl " + dataPath("alu_impl.blif") +
                           " --spec " + dataPath("alu_spec.blif");

  // Undisturbed one-shot references for both seeds.
  for (int seed : {1, 2}) {
    const std::string tag = std::to_string(seed);
    ASSERT_EQ(runCli(pair + " --seed " + tag + " --journal " + dir + "/ref" +
                         tag + " --out " + dir + "/ref" + tag + ".blif",
                     dir + "/ref" + tag + ".log"),
              0);
  }

  // Daemon life 1: two self-crashing jobs (one committed checkpoint per
  // attempt), then SIGKILL the daemon while they are mid-heal.
  std::ofstream(dir + "/crash.plan") << "from 0 journal.checkpoint crash\n";
  int port = 0;
  const pid_t first =
      spawnDaemon(dir, "d1", "--serve-pool 1 --serve-attempts 40", &port);
  ASSERT_GT(first, 0) << slurp(dir + "/d1.log");
  for (int seed : {1, 2}) {
    const std::string tag = std::to_string(seed);
    ASSERT_EQ(runCli("--connect 127.0.0.1:" + std::to_string(port) + " " +
                         pair + " --seed " + tag +
                         " --detach --submit-fault " + dir + "/crash.plan",
                     dir + "/submit" + tag + ".log"),
              0)
        << slurp(dir + "/submit" + tag + ".log");
  }
  subprocess::pollReadable({}, 900);
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  for (int waited = 0; waited < 5000; waited += 50) {
    if (::kill(first, 0) != 0) break;
    subprocess::pollReadable({}, 50);
  }
  // The WAL must already hold the jobs' dispatch history; nothing was
  // drained yet when the daemon died.
  const std::string wal = slurp(dir + "/state/queue/journal.jsonl");
  EXPECT_NE(wal.find("\"event\":\"running\""), std::string::npos);
  EXPECT_EQ(wal.find("\"event\":\"done\""), std::string::npos);

  // Daemon life 2: recovery re-queues both jobs with resume; the drain
  // must converge and every verdict record and rectified netlist must be
  // bit-identical to the undisturbed references.
  const pid_t second =
      spawnDaemon(dir, "d2", "--serve-pool 1 --serve-attempts 40", &port);
  ASSERT_GT(second, 0) << slurp(dir + "/d2.log");
  for (int seed : {1, 2}) {
    const std::string tag = std::to_string(seed);
    const std::string job = "j00000" + tag;
    EXPECT_EQ(runCli("--connect 127.0.0.1:" + std::to_string(port) +
                         " --wait " + job,
                     dir + "/wait" + tag + ".log"),
              0)
        << slurp(dir + "/wait" + tag + ".log");
    const std::string ref = lastVerdicts(dir + "/ref" + tag);
    const std::string healed = lastVerdicts(dir + "/state/jobs/" + job +
                                            "/journal");
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(healed, ref) << "job " << job;
    EXPECT_EQ(slurp(dir + "/state/jobs/" + job + "/out.blif"),
              slurp(dir + "/ref" + tag + ".blif"))
        << "job " << job;
  }
  ::kill(second, SIGTERM);
  for (int waited = 0; waited < 5000; waited += 50) {
    if (::kill(second, 0) != 0) break;
    subprocess::pollReadable({}, 50);
  }
  ::kill(second, SIGKILL);
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco::serve
