// Whole-case batch fan-out: the case-dispatch wire codecs (task envelopes
// and whole-case result envelopes with their embedded report/verdicts/
// netlist texts), the batch manifest parser, the queue WAL record of a
// batch case, the deterministic case-redispatch backoff (pinned to the
// per-output transports' retryBackoffSeconds contract), and runBatch end
// to end over real in-thread agents - remote and degraded-local sweeps of
// the same manifest must drain to bit-identical artifacts. The sweep's
// ledger is the serve job queue: BatchLedgerWal.* pin how registered
// manifest cases fold back from its WAL.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eco/isolate.hpp"
#include "eco/syseco.hpp"
#include "io/journal_io.hpp"
#include "serve/batch.hpp"
#include "serve/job_queue.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "test_agent.hpp"
#include "test_dirs.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

using serve::ManifestCase;

// --- Case names (they name artifact directories on the supervisor) --------

TEST(BatchCaseName, AcceptsPortablePathComponentsOnly) {
  EXPECT_TRUE(validFleetCaseName("alu-seed1"));
  EXPECT_TRUE(validFleetCaseName("a"));
  EXPECT_TRUE(validFleetCaseName("CASE_2.retry"));
  EXPECT_TRUE(validFleetCaseName(std::string(64, 'x')));
  EXPECT_FALSE(validFleetCaseName(""));
  EXPECT_FALSE(validFleetCaseName(std::string(65, 'x')));
  EXPECT_FALSE(validFleetCaseName(".hidden"));
  EXPECT_FALSE(validFleetCaseName(".."));
  EXPECT_FALSE(validFleetCaseName("has space"));
  EXPECT_FALSE(validFleetCaseName("path/escape"));
  EXPECT_FALSE(validFleetCaseName("back\\slash"));
  EXPECT_FALSE(validFleetCaseName(std::string_view("nul\0byte", 8)));
  EXPECT_FALSE(validFleetCaseName("newline\n"));
}

// --- Case-dispatch wire codecs --------------------------------------------

TEST(BatchCodec, CaseTaskRoundtrips) {
  FleetCaseTask task;
  task.name = "alu-seed3";
  task.caseCrc = 0xdeadbeef;
  task.epoch = 0xfeedfacecafeULL;
  task.leaseSeconds = 2.5;
  task.jobs = 4;
  task.attempt = 3;
  Result<FleetCaseTask> back = decodeFleetCaseTask(encodeFleetCaseTask(task));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().name, "alu-seed3");
  EXPECT_EQ(back.value().caseCrc, 0xdeadbeefu);
  EXPECT_EQ(back.value().epoch, 0xfeedfacecafeULL);
  EXPECT_DOUBLE_EQ(back.value().leaseSeconds, 2.5);
  EXPECT_EQ(back.value().jobs, 4u);
  EXPECT_EQ(back.value().attempt, 3);
}

TEST(BatchCodec, CaseTaskFailsClosedOnHostileInput) {
  EXPECT_FALSE(decodeFleetCaseTask("").isOk());
  EXPECT_FALSE(decodeFleetCaseTask("not json").isOk());
  EXPECT_FALSE(decodeFleetCaseTask("[]").isOk());
  EXPECT_FALSE(decodeFleetCaseTask("{\"name\":\"x\"}").isOk());
  FleetCaseTask task;
  task.name = "ok";
  // A hostile case name must be rejected by the decoder even inside an
  // otherwise valid envelope (it would name a directory on the supervisor).
  std::string evil = encodeFleetCaseTask(task);
  const std::size_t at = evil.find("\"ok\"");
  ASSERT_NE(at, std::string::npos);
  evil.replace(at, 4, "\"../escape\"");
  EXPECT_FALSE(decodeFleetCaseTask(evil).isOk());
  // Zero/oversized jobs and non-positive leases are out of contract.
  task.jobs = 0;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
  task.jobs = 257;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
  task.jobs = 1;
  task.leaseSeconds = 0.0;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
  task.leaseSeconds = 1.0;
  task.attempt = 0;
  EXPECT_FALSE(decodeFleetCaseTask(encodeFleetCaseTask(task)).isOk());
}

FleetCaseResult sampleResult() {
  FleetCaseResult r;
  r.epoch = 41;
  r.exitCode = 4;
  r.report = "{\"success\": true}";
  r.verdicts = "{\"type\":\"verdicts\",\"disagreements\":0}";
  r.netlist = "raw netlist snapshot";
  r.cacheHits = 1;
  r.cacheMisses = 2;
  r.cacheEvictions = 3;
  return r;
}

TEST(BatchCodec, CaseResultRoundtrips) {
  const FleetCaseResult r = sampleResult();
  Result<FleetCaseResult> back =
      decodeFleetCaseResult(encodeFleetCaseResult(r));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().epoch, 41u);
  EXPECT_EQ(back.value().exitCode, 4);
  EXPECT_EQ(back.value().report, r.report);
  EXPECT_EQ(back.value().verdicts, r.verdicts);
  EXPECT_EQ(back.value().netlist, r.netlist);
  EXPECT_EQ(back.value().cacheHits, 1u);
  EXPECT_EQ(back.value().cacheMisses, 2u);
  EXPECT_EQ(back.value().cacheEvictions, 3u);
  // The oracle-disabled shape (no verdicts record) is legal.
  FleetCaseResult noOracle = r;
  noOracle.verdicts.clear();
  EXPECT_TRUE(
      decodeFleetCaseResult(encodeFleetCaseResult(noOracle)).isOk());
}

TEST(BatchCodec, CaseResultFailsClosedOnHostileInput) {
  EXPECT_FALSE(decodeFleetCaseResult("").isOk());
  EXPECT_FALSE(decodeFleetCaseResult("not json").isOk());
  EXPECT_FALSE(decodeFleetCaseResult("{}").isOk());
  // The report is re-served to clients verbatim: non-JSON is rejected at
  // the wire, not discovered by a client later.
  FleetCaseResult r = sampleResult();
  r.report = "not a json object";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  r = sampleResult();
  r.report = "[1,2,3]";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  // The verdicts record is compared byte-for-byte with local journal lines:
  // embedded newlines and mistagged records are out of contract.
  r = sampleResult();
  r.verdicts = "{\"type\":\"verdicts\"}\n{\"type\":\"verdicts\"}";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  r = sampleResult();
  r.verdicts = "{\"type\":\"output\"}";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  r = sampleResult();
  r.verdicts = "plain text";
  EXPECT_FALSE(decodeFleetCaseResult(encodeFleetCaseResult(r)).isOk());
  // Exit codes outside the wait-status byte are forgeries.
  std::string evil = encodeFleetCaseResult(sampleResult());
  const std::size_t at = evil.find("\"exit_code\":4");
  ASSERT_NE(at, std::string::npos);
  evil.replace(at, 13, "\"exit_code\":300");
  EXPECT_FALSE(decodeFleetCaseResult(evil).isOk());
  evil = encodeFleetCaseResult(sampleResult());
  evil.replace(evil.find("\"exit_code\":4"), 13, "\"exit_code\":-1");
  EXPECT_FALSE(decodeFleetCaseResult(evil).isOk());
}

// --- The queue WAL record of a batch case --------------------------------

TEST(BatchCodec, LedgerEventRoundtrips) {
  JournalServeEvent e;
  e.event = "running";
  e.job = "alu-seed2";
  e.format = "blif";
  e.impl = "/tmp/i.blif";
  e.spec = "/tmp/s.blif";
  e.seed = 0xfffffffffffffffeULL;  // past double precision: string-encoded
  e.jobs = 4;
  e.worker = "127.0.0.1:9000";
  e.attempt = 2;
  e.exitCode = 4;
  e.cause = "lease-expired";
  e.detail = "no heartbeat";
  e.cacheHits = 10;
  e.cacheMisses = 20;
  e.cacheEvictions = 30;
  e.faultPlan = "from 0 journal.checkpoint crash\n";
  Result<JournalServeEvent> back = parseServeEvent(serializeServeEvent(e));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().event, "running");
  EXPECT_EQ(back.value().job, "alu-seed2");
  EXPECT_EQ(back.value().impl, "/tmp/i.blif");
  EXPECT_EQ(back.value().spec, "/tmp/s.blif");
  EXPECT_EQ(back.value().seed, 0xfffffffffffffffeULL);
  EXPECT_EQ(back.value().jobs, 4);
  EXPECT_EQ(back.value().worker, "127.0.0.1:9000");
  EXPECT_EQ(back.value().attempt, 2);
  EXPECT_EQ(back.value().cause, "lease-expired");
  EXPECT_EQ(back.value().cacheHits, 10u);
  EXPECT_EQ(back.value().cacheMisses, 20u);
  EXPECT_EQ(back.value().cacheEvictions, 30u);
  EXPECT_EQ(back.value().faultPlan, "from 0 journal.checkpoint crash\n");

  // A record from before fault plans joined the WAL (its one-shot
  // "fault_inject" key instead of "fault_plan") still folds, plan-free.
  std::string old = serializeServeEvent(e);
  const std::size_t at = old.find("\"fault_plan\"");
  ASSERT_NE(at, std::string::npos);
  old.replace(at, 12, "\"fault_inject\"");
  back = parseServeEvent(old);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().faultPlan, "");
  EXPECT_EQ(back.value().job, "alu-seed2");
}

TEST(BatchCodec, LedgerEventFailsClosedOnHostileInput) {
  EXPECT_FALSE(parseServeEvent("").isOk());
  EXPECT_FALSE(parseServeEvent("junk").isOk());
  EXPECT_FALSE(parseServeEvent("{\"type\":\"batch\"}").isOk());
  EXPECT_FALSE(parseServeEvent("{\"type\":\"serve\"}").isOk());
  // The batch-case fields are optional, but present ones must be typed.
  JournalServeEvent e;
  e.event = "done";
  e.job = "a";
  std::string evil = serializeServeEvent(e);
  const std::size_t at = evil.find("\"cache_hits\":0");
  ASSERT_NE(at, std::string::npos);
  evil.replace(at, 14, "\"cache_hits\":\"many\"");
  EXPECT_FALSE(parseServeEvent(evil).isOk());
}

// --- Deterministic case-redispatch pacing (the shared jitter contract) ----

TEST(BatchBackoff, IsExactlyTheWorkerRetryContract) {
  // The case scheduler paces every requeue cause - agent failures, worker
  // deaths, spawn failures - with retryBackoffSeconds keyed by crc32(job
  // id): no new RNG path, no second backoff policy. Pin bitwise equality so
  // a divergence (a new jitter source, a different cap) fails loudly.
  for (double baseMs : {1.0, 100.0, 250.0}) {
    for (std::uint64_t seed : {1ull, 7ull, 0x12345678ull}) {
      SysecoOptions opt;
      opt.isolateBackoffMs = baseMs;
      opt.seed = seed;
      for (std::uint32_t ordinal : {0u, 3u, 999u}) {
        for (int attempt = 1; attempt <= 12; ++attempt) {
          EXPECT_DOUBLE_EQ(
              serve::caseRedispatchBackoffSeconds(baseMs, seed, ordinal,
                                                  attempt),
              retryBackoffSeconds(opt, ordinal, attempt))
              << baseMs << "/" << seed << "/" << ordinal << "/" << attempt;
        }
      }
    }
  }
}

TEST(BatchBackoff, SameInputsSameScheduleAcrossDriverLives) {
  // A SIGKILLed-and-restarted driver recomputes the schedule from the
  // queue's (seed, id, attempt) alone; two calls must agree exactly.
  const double a = serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3);
  const double b = serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3);
  EXPECT_EQ(a, b);
  // And the jitter really keys on seed and case key.
  EXPECT_NE(serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3),
            serve::caseRedispatchBackoffSeconds(100.0, 43, 5, 3));
  EXPECT_NE(serve::caseRedispatchBackoffSeconds(100.0, 42, 5, 3),
            serve::caseRedispatchBackoffSeconds(100.0, 42, 6, 3));
}

// --- Manifest parsing ------------------------------------------------------

TEST(BatchManifest, ParsesCasesWithDefaults) {
  Result<std::vector<ManifestCase>> cases = serve::parseBatchManifest(
      "{\"cases\": ["
      "{\"name\": \"a\", \"impl\": \"i1.blif\", \"spec\": \"s1.blif\"},"
      "{\"name\": \"b\", \"impl\": \"i2.blif\", \"spec\": \"s2.blif\","
      " \"seed\": 9, \"jobs\": 2}]}");
  ASSERT_TRUE(cases.isOk()) << cases.status().toString();
  ASSERT_EQ(cases.value().size(), 2u);
  EXPECT_EQ(cases.value()[0].name, "a");
  EXPECT_FALSE(cases.value()[0].hasSeed);
  EXPECT_FALSE(cases.value()[0].hasJobs);
  EXPECT_EQ(cases.value()[1].name, "b");
  EXPECT_TRUE(cases.value()[1].hasSeed);
  EXPECT_EQ(cases.value()[1].seed, 9u);
  EXPECT_TRUE(cases.value()[1].hasJobs);
  EXPECT_EQ(cases.value()[1].jobs, 2);
}

TEST(BatchManifest, FailsClosedOnHostileInput) {
  const char* corpus[] = {
      "",
      "not json",
      "[]",
      "{}",
      "{\"cases\": []}",
      "{\"cases\": [{}]}",
      "{\"cases\": [{\"name\": \"a\"}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\"}]}",
      // hostile name: path escape
      "{\"cases\": [{\"name\": \"../x\", \"impl\": \"i\", \"spec\": \"s\"}]}",
      // duplicate names would collide on one artifact directory
      "{\"cases\": ["
      "{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\"},"
      "{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\"}]}",
      // negative seed / zero jobs / absurd jobs
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"seed\": -1}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"jobs\": 0}]}",
      "{\"cases\": [{\"name\": \"a\", \"impl\": \"i\", \"spec\": \"s\","
      " \"jobs\": 100000}]}",
  };
  for (const char* text : corpus)
    EXPECT_FALSE(serve::parseBatchManifest(text).isOk()) << text;
}

// --- The batch ledger: manifest cases in the queue WAL ---------------------

std::string freshDir(const std::string& name) {
  return uniqueTestDir("batch", name);
}

TEST(BatchLedgerWal, TransitionsAreDurableAndFoldBack) {
  const std::string dir = freshDir("fold");
  {
    Result<serve::JobQueue> q = serve::JobQueue::open(dir);
    ASSERT_TRUE(q.isOk()) << q.status().toString();
    Result<serve::Job*> a =
        q.value().registerCase("a", "i.blif", "s.blif", 1, 1);
    Result<serve::Job*> b = q.value().registerCase("b", "i.v", "s.v", 2, 2);
    ASSERT_TRUE(a.isOk() && b.isOk());
    ASSERT_TRUE(q.value().markRunning(*a.value(), 1, "w:1").isOk());
    ASSERT_TRUE(q.value().markDone(*a.value(), 4, 3, 4, 5).isOk());
    // b stays queued. Drop the queue without any shutdown ceremony.
  }
  Result<serve::JobQueue> back = serve::JobQueue::open(dir);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  serve::Job* a = back.value().find("a");
  serve::Job* b = back.value().find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->state, serve::QueueState::kDone);
  EXPECT_EQ(a->exitCode, 4);
  EXPECT_EQ(a->worker, "w:1");
  EXPECT_EQ(a->cacheHits, 3u);
  EXPECT_EQ(a->cacheMisses, 4u);
  EXPECT_EQ(a->cacheEvictions, 5u);
  EXPECT_EQ(b->state, serve::QueueState::kQueued);
  EXPECT_FALSE(b->resume);
  EXPECT_EQ(b->seed, 2u);
  EXPECT_EQ(b->jobs, 2);
  EXPECT_EQ(b->format, "v");
  EXPECT_EQ(back.value().outPath(*b), back.value().jobDir("b") + "/out.v");
  // Registration order survives the fold (a sweep dispatches in manifest
  // order on every life).
  ASSERT_EQ(back.value().all().size(), 2u);
  EXPECT_EQ(back.value().all()[0], a);
  EXPECT_EQ(back.value().all()[1], b);
}

TEST(BatchLedgerWal, MidDispatchKillRecoversAsQueuedWithResume) {
  const std::string dir = freshDir("recover");
  {
    Result<serve::JobQueue> q = serve::JobQueue::open(dir);
    ASSERT_TRUE(q.isOk());
    Result<serve::Job*> c =
        q.value().registerCase("c", "i.blif", "s.blif", 3, 1);
    ASSERT_TRUE(c.isOk()) << c.status().toString();
    ASSERT_TRUE(q.value().markRunning(*c.value(), 2, "127.0.0.1:1").isOk());
    // SIGKILL here: the WAL's last word about c is "running".
  }
  Result<serve::JobQueue> back = serve::JobQueue::open(dir);
  ASSERT_TRUE(back.isOk());
  serve::Job* c = back.value().find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, serve::QueueState::kQueued)
      << "orphaned case must re-queue";
  EXPECT_TRUE(c->resume) << "recovery must resume the engine journal";
  EXPECT_EQ(c->attempt, 2) << "attempt accounting survives the kill";
  EXPECT_EQ(back.value().implPath(*c), "i.blif");
  EXPECT_EQ(back.value().specPath(*c), "s.blif");
  bool noted = false;
  for (const std::string& n : back.value().recoveryNotes())
    noted |= n.find("job c ") != std::string::npos &&
             n.find("resume") != std::string::npos;
  EXPECT_TRUE(noted) << "recovery must be observable";
}

// --- End to end: remote and local sweeps are bit-identical -----------------

#ifdef SYSECO_CLI_BIN

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Every event the sweep appended to its queue WAL, in order.
std::vector<JournalServeEvent> queueEvents(const std::string& stateDir) {
  std::vector<JournalServeEvent> events;
  Result<JournalScan> scan = scanJournal(stateDir + "/queue");
  if (!scan.isOk()) return events;
  for (const JournalFrame& f : scan.value().frames) {
    Result<JournalServeEvent> ev = parseServeEvent(f.payload);
    if (ev.isOk()) events.push_back(ev.take());
  }
  return events;
}

std::string writeManifest(const std::string& dir) {
  const std::string impl = std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif";
  const std::string spec = std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif";
  const std::string path = dir + "/manifest.json";
  std::ofstream(path) << "{\"cases\": [\n"
                      << "  {\"name\": \"alu-s1\", \"impl\": \"" << impl
                      << "\", \"spec\": \"" << spec << "\", \"seed\": 1},\n"
                      << "  {\"name\": \"alu-s2\", \"impl\": \"" << impl
                      << "\", \"spec\": \"" << spec << "\", \"seed\": 2}\n"
                      << "]}\n";
  return path;
}

serve::BatchOptions baseOptions(const std::string& manifest,
                                const std::string& stateDir) {
  serve::BatchOptions opt;
  opt.manifestPath = manifest;
  opt.stateDir = stateDir;
  opt.selfExe = SYSECO_CLI_BIN;
  opt.poolSize = 2;
  opt.leaseSeconds = 10.0;
  opt.connectTimeoutMs = 500;
  return opt;
}

TEST(BatchEndToEnd, RemoteSweepMatchesTheLocalPoolBitForBit) {
  const std::string dir = freshDir("e2e");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string manifest = writeManifest(dir);

  // Remote: two real agents over loopback.
  Agent a1, a2;
  a1.start();
  a2.start();
  serve::BatchOptions remote = baseOptions(manifest, dir + "/remote");
  remote.workers = {a1.spec(), a2.spec()};
  Result<serve::BatchOutcome> r1 = serve::runBatch(remote);
  ASSERT_TRUE(r1.isOk()) << r1.status().toString();
  EXPECT_EQ(r1.value().done, 2u);
  EXPECT_EQ(r1.value().failed, 0u);
  EXPECT_FALSE(r1.value().degradedToLocal);

  // Local: the fallback pool forks the real CLI per case.
  serve::BatchOptions local = baseOptions(manifest, dir + "/local");
  Result<serve::BatchOutcome> r2 = serve::runBatch(local);
  ASSERT_TRUE(r2.isOk()) << r2.status().toString();
  EXPECT_EQ(r2.value().done, 2u);
  EXPECT_EQ(r2.value().failed, 0u);

  for (const char* name : {"alu-s1", "alu-s2"}) {
    const std::string rc = dir + "/remote/jobs/" + name;
    const std::string lc = dir + "/local/jobs/" + name;
    const std::string rOut = slurp(rc + "/out.blif");
    ASSERT_FALSE(rOut.empty()) << name;
    EXPECT_EQ(rOut, slurp(lc + "/out.blif")) << name << " netlist diverged";
    const std::string rVerdicts = slurp(rc + "/verdicts.txt");
    ASSERT_FALSE(rVerdicts.empty()) << name;
    EXPECT_EQ(rVerdicts, slurp(lc + "/verdicts.txt"))
        << name << " verdicts diverged";
  }
  // The remote sweep really ran on the agents: each done record names one.
  for (const JournalServeEvent& ev : queueEvents(dir + "/remote")) {
    if (ev.event == "done") {
      EXPECT_TRUE(ev.worker == a1.spec() || ev.worker == a2.spec())
          << ev.job << " finished on '" << ev.worker << "'";
    }
  }
  // Satellite observability: the batch report surfaces agent cache counters.
  const std::string report = slurp(dir + "/remote/batch_report.json");
  EXPECT_NE(report.find("\"cache_totals\""), std::string::npos);
  EXPECT_NE(report.find("\"misses\""), std::string::npos);
}

TEST(BatchEndToEnd, DeadFleetDegradesToTheLocalPool) {
  const std::string dir = freshDir("degrade");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string manifest = writeManifest(dir);
  serve::BatchOptions opt = baseOptions(manifest, dir + "/state");
  opt.workers = {"127.0.0.1:1", "127.0.0.1:2"};  // nothing listens there
  opt.connectTimeoutMs = 200;
  Result<serve::BatchOutcome> out = serve::runBatch(opt);
  ASSERT_TRUE(out.isOk()) << out.status().toString();
  EXPECT_EQ(out.value().done, 2u);
  EXPECT_EQ(out.value().failed, 0u);
  EXPECT_TRUE(out.value().degradedToLocal);
  EXPECT_FALSE(slurp(dir + "/state/jobs/alu-s1/out.blif").empty());
}

TEST(BatchEndToEnd, FreshStateDirRefusesAResumedLedger) {
  const std::string dir = freshDir("refuse");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string manifest = writeManifest(dir);
  serve::BatchOptions opt = baseOptions(manifest, dir + "/state");
  Result<serve::BatchOutcome> first = serve::runBatch(opt);
  ASSERT_TRUE(first.isOk()) << first.status().toString();
  // Same state dir, expectResume unset: refuse instead of mixing sweeps.
  Result<serve::BatchOutcome> second = serve::runBatch(opt);
  ASSERT_FALSE(second.isOk());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidInput);
  // With expectResume the finished sweep re-opens and drains trivially.
  opt.expectResume = true;
  Result<serve::BatchOutcome> third = serve::runBatch(opt);
  ASSERT_TRUE(third.isOk()) << third.status().toString();
  EXPECT_EQ(third.value().done, 2u);
}

// --- Network faults of whole-case dispatch ---------------------------------
//
// Each test arms one agent-side fault site for the first dispatch of case
// alu-s1, sweeps the manifest over two loopback agents, and checks that the
// fault is classified in the queue WAL while both cases still drain to
// the artifacts of a clean sweep.

class BatchFleetFaults : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::instance().reset(); }

  /// Sweeps the manifest over two fresh agents with `kind` scheduled once at
  /// the agent site of case alu-s1. Returns the sweep's state directory
  /// after checking that it drained cleanly and matches a fault-free sweep.
  std::string sweepWithFault(fault::Kind kind, double leaseSeconds,
                             double backoffBaseMs) {
    const std::string dir = freshDir("fault");
    EXPECT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    const std::string manifest = writeManifest(dir);
    {
      Agent a1, a2;
      a1.start();
      a2.start();
      serve::BatchOptions clean = baseOptions(manifest, dir + "/clean");
      clean.workers = {a1.spec(), a2.spec()};
      Result<serve::BatchOutcome> ran = serve::runBatch(clean);
      EXPECT_TRUE(ran.isOk()) << ran.status().toString();
    }
    Agent a1, a2;
    a1.start();
    a2.start();
    fault::Injector::instance().schedule("fleet.agent.case.alu-s1", kind, 0);
    serve::BatchOptions opt = baseOptions(manifest, dir + "/state");
    opt.workers = {a1.spec(), a2.spec()};
    opt.leaseSeconds = leaseSeconds;
    opt.backoffBaseMs = backoffBaseMs;
    Result<serve::BatchOutcome> out = serve::runBatch(opt);
    EXPECT_TRUE(out.isOk()) << out.status().toString();
    if (out.isOk()) {
      EXPECT_EQ(out.value().done, 2u);
      EXPECT_EQ(out.value().failed, 0u);
      EXPECT_FALSE(out.value().degradedToLocal);
    }
    for (const char* name : {"alu-s1", "alu-s2"}) {
      const std::string got = dir + "/state/jobs/" + name;
      const std::string want = dir + "/clean/jobs/" + name;
      EXPECT_FALSE(slurp(got + "/out.blif").empty()) << name;
      EXPECT_EQ(slurp(got + "/out.blif"), slurp(want + "/out.blif")) << name;
      EXPECT_EQ(slurp(got + "/verdicts.txt"), slurp(want + "/verdicts.txt"))
          << name;
    }
    return dir + "/state";
  }

  /// Requeue causes the queue recorded for case alu-s1.
  static std::vector<std::string> requeueCauses(const std::string& state) {
    std::vector<std::string> causes;
    for (const JournalServeEvent& ev : queueEvents(state))
      if (ev.event == "recovered" && ev.job == "alu-s1")
        causes.push_back(ev.cause);
    return causes;
  }

  /// The dispatch ordinal alu-s1 finished on (1 = first attempt).
  static std::int64_t finalAttempt(const std::string& state) {
    std::int64_t attempt = 0;
    for (const JournalServeEvent& ev : queueEvents(state))
      if (ev.event == "done" && ev.job == "alu-s1") attempt = ev.attempt;
    return attempt;
  }
};

TEST_F(BatchFleetFaults, ConnectionResetConsumesOneAttemptAndTheBatchRecovers) {
  const std::string state = sweepWithFault(fault::Kind::kNetReset, 10.0, 1.0);
  EXPECT_EQ(requeueCauses(state), std::vector<std::string>{"conn-reset"});
  EXPECT_EQ(finalAttempt(state), 2);
}

TEST_F(BatchFleetFaults, TruncatedResultFrameClassifiesAsFrameTruncated) {
  const std::string state =
      sweepWithFault(fault::Kind::kNetTruncate, 10.0, 1.0);
  EXPECT_EQ(requeueCauses(state), std::vector<std::string>{"frame-truncated"});
  EXPECT_EQ(finalAttempt(state), 2);
}

TEST_F(BatchFleetFaults, SilentAgentLosesItsLeaseAndTheCaseIsReclaimed) {
  const std::string state = sweepWithFault(fault::Kind::kHang, 0.5, 1.0);
  EXPECT_EQ(requeueCauses(state), std::vector<std::string>{"lease-expired"});
  EXPECT_EQ(finalAttempt(state), 2);
}

TEST_F(BatchFleetFaults, LateDuplicateResultIsDiscardedByEpoch) {
  // The delayed agent answers about 1 s after dispatch (1.5 leases plus its
  // compute); a 1.5 s redispatch backoff keeps the sweep open past that,
  // so the duplicate reaches the dispatcher and must lose by epoch.
  const std::string state = sweepWithFault(fault::Kind::kNetDelay, 0.5, 1500.0);
  EXPECT_EQ(requeueCauses(state), std::vector<std::string>{"lease-expired"});
  EXPECT_EQ(finalAttempt(state), 2);
  bool discarded = false;
  for (const JournalServeEvent& ev : queueEvents(state))
    discarded |= ev.event == "note" &&
                 ev.detail.find("stale-epoch duplicate") != std::string::npos &&
                 ev.detail.find("alu-s1") != std::string::npos;
  EXPECT_TRUE(discarded);
}

// --- The CLI keeps --workers to whole-case dispatch -------------------------

TEST(BatchCli, WorkersOnASingleRunIsAUsageErrorNamingBatch) {
  const std::string dir = freshDir("cli");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string data = std::string(SYSECO_SOURCE_DIR) + "/data/";
  const std::string cmd = std::string(SYSECO_CLI_BIN) + " --impl " + data +
                          "alu_impl.blif --spec " + data +
                          "alu_spec.blif --workers 127.0.0.1:9000 > '" + dir +
                          "/log' 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);  // kExitUsage
  EXPECT_NE(slurp(dir + "/log").find("--batch"), std::string::npos)
      << slurp(dir + "/log");
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
